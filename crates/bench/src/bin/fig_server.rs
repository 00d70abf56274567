//! Figure SV — comparison-as-a-service scaling: job throughput and
//! client-observed latency (p50/p95/p99) as 1, 4, and 16 concurrent
//! clients drive mixed traffic at one `reprocmp-server` daemon.
//!
//! Each client holds its own in-process session (the channel
//! transport — the same frames as TCP without kernel socket noise)
//! and round-trips a mixed stream of compare, materialize, and ingest
//! jobs, timing each submit→result cycle. The daemon runs its
//! default two-worker pool throughout, so the figure shows how the
//! DRR queue degrades *fairly*: added clients shrink each client's
//! share of the pool, stretching p99 roughly linearly while aggregate
//! throughput holds.
//!
//! The binary also emits `bench_results/server_compare_profile.json`:
//! the canonical server-path compare report, whose *modeled* stage
//! breakdown is deterministic (every job runs on a fresh sim
//! timeline). `make perf-diff` diffs it against the committed
//! baseline in `tests/goldens/`, gating server-path performance
//! regressions without wall-clock flakiness. `--profile-only` skips
//! the throughput sweep and writes just that file.
//!
//! ```sh
//! cargo run -p reprocmp-bench --bin fig_server --release
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reprocmp_bench::{fmt_dur, Recorder};
use reprocmp_server::{
    execute_spec, pair, serve_connection, JobSpec, ObjectRef, Server, ServerClient, ServerConfig,
};

const CHUNK: usize = 4096;
const VALUES: usize = 1 << 16; // 64 Ki f32 = 256 KiB per object
const JOBS_PER_CLIENT: usize = 24;
const CLIENT_COUNTS: [usize; 3] = [1, 4, 16];

fn fresh_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("reprocmp-figsv-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

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

fn start_server(tag: &str) -> (Arc<Server>, PathBuf) {
    let root = fresh_root(tag);
    let server = Arc::new(
        Server::start(ServerConfig {
            chunk_bytes: CHUNK,
            queue_capacity: 256,
            ..ServerConfig::rooted_at(&root)
        })
        .expect("daemon start"),
    );
    seed_store(&server);
    (server, root)
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

fn quantile(sorted: &[Duration], q: f64) -> Duration {
    let at = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[at]
}

/// Writes the deterministic server-path compare profile that
/// `make perf-diff` gates against the committed baseline.
fn write_profile() {
    let (server, root) = start_server("profile");
    let outcome = execute_spec(
        server.store(),
        server.engine(),
        &JobSpec::Compare {
            left: obj("base", 1),
            right: obj("base", 2),
        },
    );
    let report = outcome.result.expect("profile compare");
    drop(server);
    std::fs::remove_dir_all(&root).ok();

    let dir = std::path::Path::new("bench_results");
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("warning: could not create bench_results/");
        return;
    }
    let path = dir.join("server_compare_profile.json");
    let mut json = serde_json::to_string_pretty(&report).expect("encode profile");
    json.push('\n');
    if std::fs::write(&path, json).is_err() {
        eprintln!("warning: could not write {}", path.display());
    } else {
        println!("server-path compare profile written to {}", path.display());
    }
}

fn main() {
    let profile_only = std::env::args().any(|a| a == "--profile-only");
    write_profile();
    if profile_only {
        return;
    }

    let mut rec = Recorder::new();
    println!("=== Figure SV: daemon throughput & latency vs concurrent clients ===");
    println!("(256 KiB objects, chunk {CHUNK} B, {JOBS_PER_CLIENT} mixed jobs/client, 2 workers)");
    println!(
        "{:>8} {:>8} {:>12} {:>10} {:>10} {:>10}",
        "clients", "jobs", "jobs/s", "p50", "p95", "p99"
    );
    for &clients in &CLIENT_COUNTS {
        let (server, root) = start_server(&format!("n{clients}"));
        let started = Instant::now();
        let mut all: Vec<Duration> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let server = Arc::clone(&server);
                    scope.spawn(move || drive_client(&server, c))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = started.elapsed();
        server.shutdown();
        drop(server);
        std::fs::remove_dir_all(&root).ok();

        all.sort_unstable();
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
    rec.save("fig_server");
}
