//! The daemon figures: one `reprocmp-server` daemon on a fresh store,
//! seeded with one baseline pair, driven by in-process clients.
//!
//! Each client holds its own session over the channel transport (the
//! same frames as TCP without kernel socket noise) and round-trips a
//! 2:1:1 compare/materialize/ingest stream, timing each submit→result
//! cycle. The daemon runs its default two-worker pool throughout.
//!
//! * **Figure SV** ([`fig_server`]) — job throughput and client latency
//!   (p50/p95/p99) as 1, 4 and 16 clients share the pool: the DRR
//!   queue degrades *fairly*, stretching p99 roughly linearly while
//!   aggregate throughput holds.
//! * **Figure TM** ([`fig_telemetry`]) — the cost of being watched: the
//!   same load with the telemetry sampler off, at 10 Hz and at 100 Hz.
//!   The sampler reads atomics and appends a JSONL line per tick, off
//!   the job path, so overhead at 100 Hz should be lost in the noise.
//! * **Profiles** ([`server_profile`], [`telemetry_profile`]) — the
//!   canonical server-path compare report under the default 10 Hz and
//!   under a 100 Hz sampler. Every job runs on a fresh sim timeline,
//!   so the modeled stage breakdown is deterministic: its goldens are
//!   diffed byte for byte, and a sampler that leaked into the science
//!   path would move them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use reprocmp_bench::{fmt_dur, profile_json, Recorder};
use reprocmp_server::{
    execute_spec, pair, serve_connection, JobSpec, ObjectRef, Server, ServerClient, ServerConfig,
};

const CHUNK: usize = 4096;
const VALUES: usize = 1 << 16; // 64 Ki f32 = 256 KiB per object
const JOBS_PER_CLIENT: usize = 24;
/// The daemon's default sampling cadence (100 ms).
const DEFAULT_HZ: u64 = 10;

/// Deterministic payload in a per-salt value band, so objects never
/// share chunks and dedup stays independent of submission order.
fn payload(salt: u32) -> Vec<u8> {
    (0..VALUES)
        .flat_map(|i| (salt as f32 * 1e3 + (i as f32 * 1e-3).sin()).to_le_bytes())
        .collect()
}

/// The baseline pair every compare job reads: `base@1` and a run that
/// diverges in one contiguous region.
fn seed_store(server: &Server) {
    let base = payload(1);
    let mut run = base.clone();
    // Perturb 1% of the values, mid-payload.
    for i in (VALUES / 2)..(VALUES / 2 + VALUES / 100) {
        let at = i * 4;
        let v = f32::from_le_bytes(run[at..at + 4].try_into().expect("4 bytes")) + 0.25;
        run[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
    for (version, data) in [(1u64, base), (2, run)] {
        let outcome = execute_spec(
            server.store(),
            server.engine(),
            &JobSpec::Ingest {
                name: "base".to_owned(),
                version,
                chunk_bytes: CHUNK,
                data,
            },
        );
        outcome.result.expect("seed ingest");
    }
}

fn obj(name: &str, version: u64) -> ObjectRef {
    ObjectRef {
        name: name.to_owned(),
        version,
    }
}

/// Runs `f` against a seeded daemon sampling at `hz` (0 = off), then
/// drains the daemon and deletes its store.
fn with_daemon<T>(tag: &str, hz: u64, f: impl FnOnce(&Arc<Server>) -> T) -> T {
    let root = std::env::temp_dir().join(format!("reprocmp-daemon-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let server = Arc::new(
        Server::start(ServerConfig {
            chunk_bytes: CHUNK,
            queue_capacity: 256,
            telemetry_cadence: 1_000_000_000u64
                .checked_div(hz)
                .map_or(Duration::ZERO, Duration::from_nanos),
            ..ServerConfig::rooted_at(&root)
        })
        .expect("daemon start"),
    );
    seed_store(&server);
    let out = f(&server);
    drop(server);
    std::fs::remove_dir_all(&root).ok();
    out
}

/// One client's session: mixed traffic, each job timed submit→result.
fn drive_client(server: &Arc<Server>, client_no: usize) -> Vec<Duration> {
    let (client_end, server_end) = pair();
    let handle = {
        let server = Arc::clone(server);
        std::thread::spawn(move || {
            let mut conn = server_end;
            let _ = serve_connection(&server, &mut conn);
        })
    };
    let mut session =
        ServerClient::over(Box::new(client_end), &format!("client-{client_no}")).expect("hello");

    let mut latencies = Vec::with_capacity(JOBS_PER_CLIENT);
    let ingest_data = payload(100 + client_no as u32);
    for i in 0..JOBS_PER_CLIENT {
        let started = Instant::now();
        // 2:1:1 compare : materialize : ingest — reads dominate, as
        // they would for a daemon serving a CI fleet.
        let job = match i % 4 {
            0 | 1 => session
                .compare(obj("base", 1), obj("base", 2))
                .expect("submit"),
            2 => session.materialize("base", 1).expect("submit"),
            _ => session
                .ingest(
                    &format!("c{client_no}"),
                    i as u64 + 1,
                    CHUNK as u64,
                    &ingest_data,
                )
                .expect("submit"),
        };
        let status = session.wait(job).expect("wait");
        assert!(status.error.is_none(), "job failed: {:?}", status.error);
        latencies.push(started.elapsed());
    }
    drop(session);
    let _ = handle.join();
    latencies
}

/// `clients` concurrent sessions: the wall time of the whole load and
/// every job's latency, sorted.
fn drive(server: &Arc<Server>, clients: usize) -> (Duration, Vec<Duration>) {
    let started = Instant::now();
    let mut all: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || drive_client(server, c)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed();
    all.sort_unstable();
    (wall, all)
}

fn quantile(sorted: &[Duration], q: f64) -> Duration {
    let at = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[at]
}

/// Figure SV: throughput and latency quantiles at 1, 4 and 16 clients.
pub fn fig_server() -> String {
    let mut rec = Recorder::new();
    println!("=== Figure SV: daemon throughput & latency vs concurrent clients ===");
    println!("(256 KiB objects, chunk {CHUNK} B, {JOBS_PER_CLIENT} mixed jobs/client, 2 workers)");
    println!(
        "{:>8} {:>8} {:>12} {:>10} {:>10} {:>10}",
        "clients", "jobs", "jobs/s", "p50", "p95", "p99"
    );
    for clients in [1usize, 4, 16] {
        let (wall, all) = with_daemon(&format!("n{clients}"), DEFAULT_HZ, |server| {
            drive(server, clients)
        });
        let jobs = all.len();
        let throughput = jobs as f64 / wall.as_secs_f64();
        let (p50, p95, p99) = (
            quantile(&all, 0.50),
            quantile(&all, 0.95),
            quantile(&all, 0.99),
        );
        println!(
            "{:>8} {:>8} {:>12.1} {:>10} {:>10} {:>10}",
            clients,
            jobs,
            throughput,
            fmt_dur(p50),
            fmt_dur(p95),
            fmt_dur(p99),
        );
        let params = [("clients", clients.to_string())];
        rec.push(
            "server_scaling",
            &params,
            "throughput_jobs_per_s",
            throughput,
        );
        rec.push("server_scaling", &params, "p50_ms", p50.as_secs_f64() * 1e3);
        rec.push("server_scaling", &params, "p95_ms", p95.as_secs_f64() * 1e3);
        rec.push("server_scaling", &params, "p99_ms", p99.as_secs_f64() * 1e3);
    }
    rec.into_json()
}

/// Figure TM: four clients' throughput with the sampler off, at 10 Hz
/// and at 100 Hz.
pub fn fig_telemetry() -> String {
    const CLIENTS: usize = 4;
    let mut rec = Recorder::new();
    println!("=== Figure TM: telemetry sampling overhead on job throughput ===");
    println!(
        "(256 KiB objects, chunk {CHUNK} B, {CLIENTS} clients × {JOBS_PER_CLIENT} mixed jobs, \
         2 workers)"
    );
    println!(
        "{:>10} {:>8} {:>12} {:>10}",
        "cadence", "jobs", "jobs/s", "samples"
    );
    for hz in [0u64, 10, 100] {
        let (wall, jobs, samples) = with_daemon(&format!("hz{hz}"), hz, |server| {
            let (wall, all) = drive(server, CLIENTS);
            // How many snapshots the sampler landed while the load ran.
            (wall, all.len(), server.sample_telemetry_now().seq)
        });
        let throughput = jobs as f64 / wall.as_secs_f64();
        let label = if hz == 0 {
            "off".to_owned()
        } else {
            format!("{hz} Hz")
        };
        println!("{label:>10} {jobs:>8} {throughput:>12.1} {samples:>10}");
        let params = [("cadence_hz", hz.to_string())];
        rec.push(
            "telemetry_overhead",
            &params,
            "throughput_jobs_per_s",
            throughput,
        );
        rec.push("telemetry_overhead", &params, "samples", samples as f64);
    }
    rec.into_json()
}

/// The server-path compare report of `base@1` vs `base@2`, run while
/// the daemon samples at `hz`.
fn compare_profile(hz: u64) -> String {
    let report = with_daemon(&format!("profile{hz}"), hz, |server| {
        let outcome = execute_spec(
            server.store(),
            server.engine(),
            &JobSpec::Compare {
                left: obj("base", 1),
                right: obj("base", 2),
            },
        );
        outcome.result.expect("profile compare")
    });
    profile_json(&report)
}

/// The compare profile under the daemon's default sampler.
pub fn server_profile() -> String {
    compare_profile(DEFAULT_HZ)
}

/// The compare profile under a 100 Hz sampler.
pub fn telemetry_profile() -> String {
    compare_profile(100)
}
