//! Figure TM — the cost of being watched: daemon job throughput with
//! the background telemetry sampler off, at 10 Hz, and at 100 Hz.
//!
//! The telemetry plane's contract is that observation is free: the
//! sampler reads atomics and appends a JSONL line per tick, entirely
//! off the job execution path. This harness puts a number on "free" —
//! the same fixed mixed job load (compare/materialize/ingest) runs
//! against three otherwise-identical daemons whose only difference is
//! the sampling cadence, and the figure reports jobs/s for each.
//! Overhead at 100 Hz should be lost in run-to-run noise.
//!
//! The binary also emits `bench_results/telemetry_profile.json`: the
//! canonical compare report produced *while a 100 Hz sampler runs*.
//! Its modeled stage breakdown is deterministic, so `make perf-diff`
//! can gate it against the committed baseline in `tests/goldens/` —
//! if sampling ever leaks into the science path, the stage numbers
//! move and the gate trips. `--profile-only` skips the throughput
//! sweep and writes just that file.
//!
//! ```sh
//! cargo run -p reprocmp-bench --bin fig_telemetry --release
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reprocmp_bench::Recorder;
use reprocmp_server::{
    execute_spec, pair, serve_connection, JobSpec, ObjectRef, Server, ServerClient, ServerConfig,
};

const CHUNK: usize = 4096;
const VALUES: usize = 1 << 16; // 64 Ki f32 = 256 KiB per object
const JOBS_PER_CLIENT: usize = 24;
const CLIENTS: usize = 4;
/// Sampling cadences under test, expressed in Hz (0 = sampler off).
const CADENCES_HZ: [u64; 3] = [0, 10, 100];

fn fresh_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("reprocmp-figtm-{tag}-{}", std::process::id()));
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

fn cadence(hz: u64) -> Duration {
    1_000_000_000u64
        .checked_div(hz)
        .map_or(Duration::ZERO, Duration::from_nanos)
}

fn start_server(tag: &str, hz: u64) -> (Arc<Server>, PathBuf) {
    let root = fresh_root(tag);
    let server = Arc::new(
        Server::start(ServerConfig {
            chunk_bytes: CHUNK,
            queue_capacity: 256,
            telemetry_cadence: cadence(hz),
            ..ServerConfig::rooted_at(&root)
        })
        .expect("daemon start"),
    );
    seed_store(&server);
    (server, root)
}

/// One client's session: the same mixed traffic as Figure SV.
fn drive_client(server: &Arc<Server>, client_no: usize) {
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
    let ingest_data = payload(100 + client_no as u32);
    for i in 0..JOBS_PER_CLIENT {
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
    }
    drop(session);
    let _ = handle.join();
}

/// Writes the deterministic compare profile produced under a live
/// 100 Hz sampler, for `make perf-diff` to gate. If the telemetry
/// plane ever perturbs the science path, the modeled stage numbers
/// shift and the committed baseline catches it.
fn write_profile() {
    let (server, root) = start_server("profile", 100);
    let outcome = execute_spec(
        server.store(),
        server.engine(),
        &JobSpec::Compare {
            left: obj("base", 1),
            right: obj("base", 2),
        },
    );
    let report = outcome.result.expect("profile compare");
    server.shutdown();
    drop(server);
    std::fs::remove_dir_all(&root).ok();

    let dir = std::path::Path::new("bench_results");
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("warning: could not create bench_results/");
        return;
    }
    let path = dir.join("telemetry_profile.json");
    let mut json = serde_json::to_string_pretty(&report).expect("encode profile");
    json.push('\n');
    if std::fs::write(&path, json).is_err() {
        eprintln!("warning: could not write {}", path.display());
    } else {
        println!("sampled compare profile written to {}", path.display());
    }
}

fn main() {
    let profile_only = std::env::args().any(|a| a == "--profile-only");
    write_profile();
    if profile_only {
        return;
    }

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
    for &hz in &CADENCES_HZ {
        let (server, root) = start_server(&format!("hz{hz}"), hz);
        let started = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let server = Arc::clone(&server);
                    scope.spawn(move || drive_client(&server, c))
                })
                .collect();
            for h in handles {
                h.join().expect("client thread");
            }
        });
        let wall = started.elapsed();
        // How many snapshots the sampler actually landed (ring +
        // evictions were taken while the load ran).
        let samples = server.sample_telemetry_now().seq;
        server.shutdown();
        drop(server);
        std::fs::remove_dir_all(&root).ok();

        let jobs = CLIENTS * JOBS_PER_CLIENT;
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
    rec.save("fig_telemetry");
}
