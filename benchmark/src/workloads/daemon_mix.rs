//! `daemon_mix`: a closed loop of compare, materialize and ingest jobs
//! against an in-process daemon over loopback TCP.
//!
//! ROADMAP item 3's path — socket, frame codec, hex payloads, DRR
//! queue, job table, store lock — with queue depth above the worker
//! count, on real sockets. Two connections each keep four jobs
//! outstanding: eight in flight against two workers.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

use super::{fresh_dir, Limit, Mode, Window, Workload};
use crate::gen::{self, SplitMix64, Truth};
use crate::procfs::{dir_bytes, io_counters, peak_rss_mib, reset_peak_rss};
use crate::surface::{self as sys, Job, JobResult, Res};
use crate::trace::Tracer;

pub const OBJECT_VALUES: usize = 256 << 10; // 1 MiB
/// Outstanding jobs per connection.
const DEPTH: usize = 4;
/// Jobs in one pass over the mix: 2 : 1 : 1 compare : materialize :
/// ingest, as compare, materialize, compare, ingest.
const MIX_LEN: u64 = 4;
const INGEST_FRESH_SHARE: f64 = 0.05;
const INGEST_RUN_CHUNKS: usize = 4;
const BASE: &str = "base";

/// What a job's result is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The generator's difference count for `base@1` against `base@2`.
    Compare,
    /// The bytes of `base@1` (0) or `base@2` (1).
    Materialize(usize),
    /// An exact ledger over one object.
    Ingest,
}

/// The oracle's own hex, so a materialize reply is not checked against
/// the encoder that produced it.
fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 15) as usize] as char);
    }
    out
}

/// The shared, read-only half of the workload: what every connection
/// needs to build jobs and check results.
pub struct Fixture {
    /// `base@1` and `base@2`, as values and as the raw bytes ingested.
    pub values: [Vec<f32>; 2],
    pub bytes: [Vec<u8>; 2],
    pub truth: Truth,
    expected_hex: [String; 2],
}

impl Fixture {
    pub fn new(rng: &mut SplitMix64, values: usize) -> Fixture {
        let a = gen::base_values(rng, values);
        let (b, truth) = gen::diverge(rng, &a, gen::SPARSE);
        Fixture {
            bytes: [gen::le_bytes(&a), gen::le_bytes(&b)],
            values: [a, b],
            truth,
            expected_hex: [String::new(), String::new()],
        }
    }

    pub fn object_bytes(&self) -> u64 {
        self.bytes[0].len() as u64
    }

    /// Ingests both base objects through `client`.
    pub fn seed(&self, client: &mut sys::Client) -> Res<()> {
        for (i, data) in self.bytes.iter().enumerate() {
            let job = client.submit(&Job::Ingest {
                name: BASE.to_owned(),
                version: i as u64 + 1,
                data: data.clone(),
            })?;
            self.check(Expect::Ingest, &client.wait(job)?)?;
        }
        Ok(())
    }

    pub fn prepare_oracle(&mut self) {
        self.expected_hex = [hex(&self.bytes[0]), hex(&self.bytes[1])];
    }

    pub fn compare_job(&self) -> Job {
        Job::Compare {
            left: (BASE.to_owned(), 1),
            right: (BASE.to_owned(), 2),
        }
    }

    pub fn materialize_job(&self, which: usize) -> Job {
        Job::Materialize {
            name: BASE.to_owned(),
            version: which as u64 + 1,
        }
    }

    /// A new version of `base@1` with a few runs of fresh chunks.
    pub fn ingest_job(&self, rng: &mut SplitMix64, name: &str, version: u64) -> Job {
        let (next, _) = gen::churn(rng, &self.values[0], INGEST_FRESH_SHARE, INGEST_RUN_CHUNKS);
        Job::Ingest {
            name: name.to_owned(),
            version,
            data: gen::le_bytes(&next),
        }
    }

    pub fn expect(job: &Job) -> Expect {
        match job {
            Job::Compare { .. } => Expect::Compare,
            Job::Materialize { version, .. } => Expect::Materialize(*version as usize - 1),
            Job::Ingest { .. } => Expect::Ingest,
        }
    }

    /// Checks a finished job; returns the object bytes it addressed.
    pub fn check(&self, expect: Expect, result: &JobResult) -> Res<u64> {
        if let Some(e) = &result.error {
            return Err(format!("{expect:?} job failed: {e}"));
        }
        match expect {
            Expect::Compare => {
                if result.diff_count != Some(self.truth.diff_count) {
                    return Err(format!(
                        "compare job reported {:?} differences, the generator made {}",
                        result.diff_count, self.truth.diff_count
                    ));
                }
                Ok(2 * self.object_bytes())
            }
            Expect::Materialize(which) => {
                if result.data_hex.as_deref() != Some(self.expected_hex[which].as_str()) {
                    return Err("materialize job is not byte-exact".to_owned());
                }
                Ok(self.object_bytes())
            }
            Expect::Ingest => match result.ledger {
                Some(l) if l.exact() && l.logical == self.object_bytes() => Ok(l.logical),
                other => Err(format!("ingest job ledger does not add up: {other:?}")),
            },
        }
    }
}

/// One connection's deterministic job sequence.
struct Lane {
    name: String,
    rng: SplitMix64,
    issued: u64,
}

impl Lane {
    fn next(&mut self, fx: &Fixture) -> Job {
        let (pass, slot) = (self.issued / MIX_LEN, self.issued % MIX_LEN);
        self.issued += 1;
        match slot {
            1 => fx.materialize_job((pass % 2) as usize),
            3 => fx.ingest_job(&mut self.rng, &self.name, pass + 1),
            _ => fx.compare_job(),
        }
    }
}

pub struct DaemonMix {
    daemon: sys::Daemon,
    store_root: PathBuf,
    fx: Fixture,
    lanes: Vec<Lane>,
    /// Ingest jobs the traced window replayed into the same store.
    replayed_ingests: u64,
}

/// Connections, and generator threads: at most `nproc`, at most two.
fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

impl Workload for DaemonMix {
    const NAME: &'static str = "daemon_mix";

    fn setup(seed: u64, dir: &Path) -> Res<Self> {
        let dir = fresh_dir(dir)?;
        let store_root = dir.join("store");
        let mut rng = SplitMix64::new(seed);
        let fx = Fixture::new(&mut rng, OBJECT_VALUES);
        let daemon = sys::daemon_start(&store_root)?;
        fx.seed(&mut sys::client_connect(&daemon, "seed")?)?;
        let lanes = (0..connections())
            .map(|i| Lane {
                name: format!("c{i}"),
                rng: rng.fork(i as u64 + 1),
                issued: 0,
            })
            .collect();
        Ok(DaemonMix {
            daemon,
            store_root,
            fx,
            lanes,
            replayed_ingests: 0,
        })
    }

    fn oracle(&mut self) -> Res<()> {
        self.fx.prepare_oracle();
        Ok(())
    }

    fn window(&mut self, limit: Limit, mode: Mode) -> Window {
        match mode {
            Mode::Measure => self.closed_loop(limit),
            Mode::Plain => self.one_at_a_time(limit, None),
            Mode::Traced(t) => self.one_at_a_time(limit, Some(t)),
        }
    }

    fn stored_bytes_per_user_byte(&self) -> f64 {
        // The two base objects, one ingest per pass over the mix on
        // every lane, and the traced window's replayed twins.
        let ingests =
            2 + self.lanes.iter().map(|l| l.issued / MIX_LEN).sum::<u64>() + self.replayed_ingests;
        dir_bytes(&self.store_root) as f64 / (ingests * self.fx.object_bytes()) as f64
    }

    fn object_bytes(&self) -> u64 {
        self.fx.object_bytes()
    }

    fn teardown(self) -> Res<()> {
        self.daemon.stop()
    }
}

impl DaemonMix {
    /// The measured loop: every connection keeps [`DEPTH`] jobs
    /// outstanding and waits for them oldest first. A job's latency
    /// runs from its submit to the return of its wait, so a job that
    /// overtakes an older one on the same connection is still timed
    /// when the client could have seen it.
    fn closed_loop(&mut self, limit: Limit) -> Window {
        let (daemon, fx) = (&self.daemon, &self.fx);
        let lanes = self.lanes.len() as u64;
        reset_peak_rss();
        let io_before = io_counters();
        let start = Instant::now();
        let mut win = Window::default();
        let parts: Vec<Window> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .map(|lane| s.spawn(move || drive_lane(daemon, fx, lane, limit, lanes, start)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lane thread panicked"))
                .collect()
        });
        win.wall = start.elapsed();
        win.io = io_counters().since(io_before);
        win.peak_rss_mib.push(peak_rss_mib());
        for p in parts {
            win.ops.extend(p.ops);
            win.attempted += p.attempted;
            win.failed += p.failed;
            if win.first_failure.is_none() {
                win.first_failure = p.first_failure;
            }
        }
        win
    }

    /// One connection, one job at a time: the op is submit + wait over
    /// TCP. With a tracer its replay is `execute_spec` on the same job,
    /// so the gap is transport, codec, queue and job table.
    fn one_at_a_time(&mut self, limit: Limit, mut tracer: Option<&mut Tracer>) -> Window {
        let mut win = Window::default();
        let start = Instant::now();
        let lane = &mut self.lanes[0];
        let mut client = match sys::client_connect(&self.daemon, &lane.name) {
            Ok(c) => c,
            Err(e) => {
                win.record(Err(e), start.elapsed(), start.elapsed());
                return win;
            }
        };
        let mut n = 0u64;
        while !limit.done(start.elapsed(), n, MIX_LEN) {
            let job = lane.next(&self.fx);
            let expect = Fixture::expect(&job);
            let span = tracer.as_deref_mut().map(|t| {
                t.set_op(n);
                t.begin("op")
            });
            let t0 = Instant::now();
            let result = client.submit(&job).and_then(|id| client.wait(id));
            let latency = t0.elapsed();
            let mut outcome = result.and_then(|r| self.fx.check(expect, &r));
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                t.end(id);
                // The twin of an ingest goes in under a name of its own.
                let twin = match job {
                    Job::Ingest { version, data, .. } => {
                        self.replayed_ingests += 1;
                        Job::Ingest {
                            name: "replay".to_owned(),
                            version,
                            data,
                        }
                    }
                    other => other,
                };
                let id = t.begin("replay");
                let replayed = t.span("server.execute_spec", || {
                    sys::execute_spec(&self.daemon, &twin)
                });
                t.end(id);
                outcome = outcome.and_then(|b| self.fx.check(expect, &replayed).map(|_| b));
            }
            win.record(outcome, latency, start.elapsed());
            n += 1;
        }
        win.wall = start.elapsed();
        win
    }
}

fn drive_lane(
    daemon: &sys::Daemon,
    fx: &Fixture,
    lane: &mut Lane,
    limit: Limit,
    lanes: u64,
    start: Instant,
) -> Window {
    let mut win = Window::default();
    let mut client = match sys::client_connect(daemon, &lane.name) {
        Ok(c) => c,
        Err(e) => {
            win.record(Err(e), start.elapsed(), start.elapsed());
            return win;
        }
    };
    let mut outstanding: VecDeque<(u64, Expect, Instant)> = VecDeque::new();
    let mut submitted = 0u64;
    loop {
        // Every lane stands for its share of the ops and of the cycle.
        let more = !limit.done(start.elapsed(), submitted * lanes, MIX_LEN * lanes);
        while more && outstanding.len() < DEPTH {
            let job = lane.next(fx);
            let at = Instant::now();
            submitted += 1;
            match client.submit(&job) {
                Ok(id) => outstanding.push_back((id, Fixture::expect(&job), at)),
                // A refusal is a failed op, and missed any latency limit.
                Err(e) => win.record(Err(e), at.elapsed(), start.elapsed()),
            }
        }
        let Some((id, expect, at)) = outstanding.pop_front() else {
            break;
        };
        let result = client.wait(id);
        let latency = at.elapsed();
        win.record(
            result.and_then(|r| fx.check(expect, &r)),
            latency,
            start.elapsed(),
        );
    }
    win
}
