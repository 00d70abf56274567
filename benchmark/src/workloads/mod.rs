//! The five workloads, and the closed loop the four file workloads share.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::procfs::{io_counters, peak_rss_mib, reset_peak_rss, IoCounters};
use crate::surface::{cli_output_bytes, Res};
use crate::trace::Tracer;

pub mod capture;
pub mod compare;
pub mod daemon_mix;
pub mod store_cycle;

/// A measured window runs at least this many ops, unless that would
/// take more than twice the window: p90 then has ten samples beyond it.
pub const MIN_OPS: u64 = 100;

/// When a window ends.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After this many passes over the op sequence (warm-up).
    Cycles(u64),
    /// After `seconds`, and `min_ops` ops or twice `seconds`.
    Seconds { seconds: f64, min_ops: u64 },
}

impl Limit {
    pub fn done(self, elapsed: Duration, ops: u64, cycle_len: u64) -> bool {
        match self {
            Limit::Cycles(n) => ops >= n * cycle_len,
            Limit::Seconds { seconds, min_ops } => {
                let t = elapsed.as_secs_f64();
                t >= seconds && (ops >= min_ops || t >= 2.0 * seconds)
            }
        }
    }
}

/// How a window runs its ops.
#[derive(Debug)]
pub enum Mode<'t> {
    /// The workload as defined: what the end-to-end metrics measure.
    Measure,
    /// One op at a time with no spans: the traced run's yardstick for
    /// its own overhead. The four file workloads measure this way
    /// anyway; `daemon_mix` drops to one connection, one job in flight.
    Plain,
    /// As `Plain`, each op under a span and followed by its replay as
    /// public layer calls under spans.
    Traced(&'t mut Tracer),
}

impl<'t> Mode<'t> {
    pub fn tracer(self) -> Option<&'t mut Tracer> {
        match self {
            Mode::Traced(t) => Some(t),
            Mode::Measure | Mode::Plain => None,
        }
    }
}

/// One op that completed with a correct output.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// When it completed, in seconds since the window began.
    pub done_s: f64,
    pub latency_ms: f64,
    /// User checkpoint bytes it addressed.
    pub user_bytes: u64,
}

/// What one window measured.
#[derive(Debug, Default)]
pub struct Window {
    pub ops: Vec<OpSample>,
    pub wall: Duration,
    pub attempted: u64,
    /// Failed, refused, or wrong output.
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Syscall bytes moved by the ops (checks excluded where they can be).
    pub io: IoCounters,
    /// Peak RSS samples: one per op where ops run one at a time (the
    /// watermark is reset before each), one for the window otherwise.
    pub peak_rss_mib: Vec<f64>,
}

impl Window {
    /// Files one op: `outcome` is the user bytes it addressed or why it
    /// failed, `done` the time since the window began.
    pub fn record(&mut self, outcome: Res<u64>, latency: Duration, done: Duration) {
        self.attempted += 1;
        match outcome {
            Ok(user_bytes) => self.ops.push(OpSample {
                done_s: done.as_secs_f64(),
                latency_ms: latency.as_secs_f64() * 1e3,
                user_bytes,
            }),
            Err(e) => {
                self.failed += 1;
                self.first_failure.get_or_insert(e);
            }
        }
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.latency_ms).collect()
    }

    pub fn user_bytes(&self) -> u64 {
        self.ops.iter().map(|o| o.user_bytes).sum()
    }
}

/// One workload: its inputs, its op loop, its output checks.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Builds inputs from `seed` under `dir`: generation, file writes,
    /// store seeding, daemon start. This is what `setup_s` times.
    fn setup(seed: u64, dir: &Path) -> Res<Self>;
    /// Computes expected outputs; kept out of `setup_s` because it is
    /// the checker's cost, not a user's.
    fn oracle(&mut self) -> Res<()>;
    /// Runs ops until `limit`.
    fn window(&mut self, limit: Limit, mode: Mode) -> Window;
    /// Bytes the system keeps on disk per user checkpoint byte.
    fn stored_bytes_per_user_byte(&self) -> f64;
    /// Size of one checkpoint object, for the record.
    fn object_bytes(&self) -> u64;
    /// Stops everything `setup` started.
    fn teardown(self) -> Res<()>;
}

/// A workload whose ops run one after another on the calling thread.
pub trait SerialOps {
    /// What an op hands to its check.
    type Out;
    fn cycle_len(&self) -> u64;
    /// Op `k` of the cycle, through the program's opaque entry point.
    fn op(&mut self, k: u64) -> Res<Self::Out>;
    /// Checks the op's output against ground truth; returns the user
    /// bytes the op addressed. Not timed, not counted as op I/O.
    fn check(&mut self, k: u64, out: Self::Out) -> Res<u64>;
    /// The same op as public layer calls in the program's order, each
    /// under a span.
    fn replay(&mut self, k: u64, tracer: &mut Tracer) -> Res<()>;
}

pub fn serial_window<W: SerialOps>(
    w: &mut W,
    limit: Limit,
    mut tracer: Option<&mut Tracer>,
) -> Window {
    let mut win = Window::default();
    let start = Instant::now();
    let mut n = 0u64;
    while !limit.done(start.elapsed(), n, w.cycle_len()) {
        let k = n % w.cycle_len();
        let span = tracer.as_deref_mut().map(|t| {
            t.set_op(n);
            t.begin("op")
        });
        reset_peak_rss();
        let (io_before, printed_before) = (io_counters(), cli_output_bytes());
        let t0 = Instant::now();
        let out = w.op(k);
        let latency = t0.elapsed();
        let done = start.elapsed();
        win.io.add(io_counters().since(io_before));
        win.io.wchar += cli_output_bytes() - printed_before;
        win.peak_rss_mib.push(peak_rss_mib());
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.end(id);
        }
        let mut outcome = out.and_then(|o| w.check(k, o));
        if let Some(t) = tracer.as_deref_mut() {
            let id = t.begin("replay");
            let replayed = w.replay(k, t);
            t.end(id);
            outcome = outcome.and_then(|bytes| replayed.map(|()| bytes));
        }
        win.record(outcome, latency, done);
        n += 1;
    }
    win.wall = start.elapsed();
    win
}

pub fn path_str(p: &Path) -> &str {
    p.to_str().expect("benchmark paths are UTF-8")
}

pub fn write_file(path: &Path, bytes: &[u8]) -> Res<()> {
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_file(path: &Path) -> Res<Vec<u8>> {
    std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))
}

pub fn fresh_dir(dir: &Path) -> Res<PathBuf> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

/// The CLI's `payload_values`: the payload bytes as a fresh `Vec<f32>`.
pub fn payload_values(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect()
}
