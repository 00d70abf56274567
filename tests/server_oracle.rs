//! The concurrency-equivalence oracle for `reprocmp-server`.
//!
//! **The guarantee under test:** a daemon serving N concurrent clients
//! with randomized mixed traffic (ingest, compare, compare-many,
//! materialize) produces **byte-identical** job results to the same
//! jobs executed serially, offline, through [`execute_spec`] against a
//! twin store — for N ∈ {2, 8, 16}. Worker interleaving, queue order,
//! and transport timing must be unobservable in every report byte.
//!
//! Alongside equivalence, exact ledgers are asserted under full
//! concurrency:
//!
//! * per-job journal ledgers balance (`emitted == written + dropped`)
//!   and the watch stream carries exactly `events_written` events;
//! * the daemon store's dedup ledger balances and equals the twin
//!   store's, object for object and byte for byte;
//! * admission control never deadlocks, never drops an accepted job,
//!   and rejects only at the configured bound (proptests below).
//!
//! Determinism is engineered, not accidental: every job runs on a
//! fresh simulated timeline with a fresh journal and cache, and client
//! payloads are salted per client so cross-client dedup cannot couple
//! one client's stats to another's schedule.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reprocmp::server::{
    execute_spec, pair, serve_connection, AdmitError, JobQueue, JobSpec, JobState, ObjectRef,
    Server, ServerClient, ServerConfig,
};
use reprocmp_store::ChunkStore;

const CHUNK_BYTES: u64 = 256;

fn fresh_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("reprocmp-server-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

/// A client's deterministic payload: f32 values salted by client index
/// so no two clients ever share a chunk (dedup stats stay per-client).
fn payload(client: usize, object: usize, version: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(
        0x0BAD_5EED ^ ((client as u64) << 40) ^ ((object as u64) << 16) ^ version,
    );
    let mut bytes = Vec::with_capacity(len * 4);
    for _ in 0..len {
        let v: f32 = rng.gen_range(-2.0f32..2.0) + (client as f32) * 10.0;
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

fn obj(client: usize, object: usize) -> String {
    format!("c{client}.obj{object}")
}

/// The randomized mixed traffic one client sends: first its ingests
/// (awaited, so later jobs' inputs exist), then a shuffled mix of
/// compare / compare-many / materialize jobs.
fn client_traffic(client: usize, seed: u64) -> (Vec<JobSpec>, Vec<JobSpec>) {
    let mut rng = StdRng::seed_from_u64(seed ^ ((client as u64) << 8));
    let objects = rng.gen_range(2..4usize);
    let mut ingests = Vec::new();
    for o in 0..objects {
        let len = rng.gen_range(64..512usize);
        ingests.push(JobSpec::Ingest {
            name: obj(client, o),
            version: 1,
            chunk_bytes: CHUNK_BYTES as usize,
            data: payload(client, o, 1, len),
        });
        // A perturbed second version of each object: same length, a
        // few values nudged, so compares see real sparse differences.
        let mut v2 = payload(client, o, 1, len);
        for _ in 0..rng.gen_range(1..5) {
            let at = rng.gen_range(0..len) * 4;
            let mut val = f32::from_le_bytes(v2[at..at + 4].try_into().unwrap());
            val += rng.gen_range(0.5f32..1.5);
            v2[at..at + 4].copy_from_slice(&val.to_le_bytes());
        }
        ingests.push(JobSpec::Ingest {
            name: obj(client, o),
            version: 2,
            chunk_bytes: CHUNK_BYTES as usize,
            data: v2,
        });
    }

    let mut work = Vec::new();
    for _ in 0..rng.gen_range(3..7) {
        let o = rng.gen_range(0..objects);
        match rng.gen_range(0..4) {
            0 => work.push(JobSpec::Compare {
                left: ObjectRef {
                    name: obj(client, o),
                    version: 1,
                },
                right: ObjectRef {
                    name: obj(client, o),
                    version: 2,
                },
            }),
            1 => work.push(JobSpec::CompareMany {
                baseline: ObjectRef {
                    name: obj(client, o),
                    version: 1,
                },
                runs: (0..objects)
                    .map(|r| ObjectRef {
                        name: obj(client, r),
                        version: 2,
                    })
                    .collect(),
            }),
            2 => work.push(JobSpec::Materialize {
                name: obj(client, o),
                version: rng.gen_range(1..3),
            }),
            _ => work.push(JobSpec::Compare {
                left: ObjectRef {
                    name: obj(client, o),
                    version: 2,
                },
                right: ObjectRef {
                    name: obj(client, rng.gen_range(0..objects)),
                    version: 1,
                },
            }),
        }
    }
    (ingests, work)
}

/// Submits a spec through the wire client, retrying under backpressure
/// (admission control is allowed to say "not now", never to lose an
/// accepted job).
fn submit_with_retry(client: &mut ServerClient, spec: &JobSpec) -> u64 {
    loop {
        let result = match spec.clone() {
            JobSpec::Ingest {
                name,
                version,
                chunk_bytes,
                data,
            } => client.ingest(&name, version, chunk_bytes as u64, &data),
            JobSpec::Compare { left, right } => client.compare(left, right),
            JobSpec::CompareMany { baseline, runs } => client.compare_many(baseline, runs),
            JobSpec::Materialize { name, version } => client.materialize(&name, version),
        };
        match result {
            Ok(job) => return job,
            Err(reprocmp::server::ClientError::Rejected { .. }) => {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Err(e) => panic!("submit failed: {e}"),
        }
    }
}

/// What one online job produced, keyed for offline replay.
struct OnlineResult {
    spec: JobSpec,
    state: JobState,
    /// `serde_json` encoding of the result document (byte-compared).
    result_json: Option<String>,
    error: Option<String>,
    /// Watch stream: (seq, ts_ns, lane, kind) per event.
    events: Vec<(u64, u64, String, String)>,
    ledger: (u64, u64, u64),
}

fn encode_value(v: &serde::Value) -> String {
    serde_json::to_string(v).expect("value encodes")
}

/// The oracle proper: N concurrent wire clients against one daemon,
/// then a serial offline replay, then byte-for-byte comparison.
fn concurrency_equivalence_oracle(n_clients: usize, seed: u64) {
    let root = fresh_root(&format!("oracle-{n_clients}"));
    let server = Arc::new(
        Server::start(ServerConfig {
            workers: 4,
            queue_capacity: 8 * n_clients.max(2),
            ..ServerConfig::rooted_at(&root)
        })
        .expect("daemon claims a fresh store"),
    );

    // Phase 1: concurrent online execution over in-process transport.
    let mut joins = Vec::new();
    for c in 0..n_clients {
        let server = Arc::clone(&server);
        joins.push(std::thread::spawn(move || {
            let (client_half, server_half) = pair();
            // Handler thread: exits at EOF when the session drops.
            {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let mut conn = server_half;
                    serve_connection(&server, &mut conn).expect("handler runs to EOF");
                });
            }
            let mut session = ServerClient::over(Box::new(client_half), &format!("client-{c}"))
                .expect("hello handshake");

            let (ingests, work) = client_traffic(c, seed);
            let mut submitted: Vec<(u64, JobSpec)> = Vec::new();

            // Ingests first, each awaited before the next: successive
            // versions of one object share chunks, so *this client's*
            // ingest order must be fixed for its dedup stats to be
            // deterministic. Cross-client interleaving stays fully
            // concurrent — payload salting keeps it unobservable.
            for spec in &ingests {
                let job = submit_with_retry(&mut session, spec);
                let status = session.wait(job).expect("wait");
                assert_eq!(status.state, JobState::Done, "ingest {job} must succeed");
                submitted.push((job, spec.clone()));
            }
            for spec in &work {
                let job = submit_with_retry(&mut session, spec);
                submitted.push((job, spec.clone()));
            }

            let mut results = Vec::new();
            for (job, spec) in submitted {
                let status = session.wait(job).expect("wait");
                let (events, summary) = session.watch(job).expect("watch");
                assert_eq!(
                    summary.events_emitted,
                    summary.events_written + summary.events_dropped,
                    "journal ledger must balance for job {job}"
                );
                assert_eq!(
                    events.len() as u64,
                    summary.events_written,
                    "watch must stream exactly the written events"
                );
                results.push((
                    job,
                    OnlineResult {
                        spec,
                        state: status.state,
                        result_json: status.result.as_ref().map(encode_value),
                        error: status.error,
                        events: events
                            .into_iter()
                            .map(|e| (e.seq, e.ts_ns, e.lane, e.kind))
                            .collect(),
                        ledger: (
                            summary.events_emitted,
                            summary.events_written,
                            summary.events_dropped,
                        ),
                    },
                ));
            }
            results
        }));
    }

    // Job-id order is a serialization consistent with every client's
    // own submission order (each client awaited its ingests before
    // submitting jobs that read them).
    let mut online: BTreeMap<u64, OnlineResult> = BTreeMap::new();
    for join in joins {
        for (job, result) in join.join().expect("client thread") {
            assert!(
                online.insert(job, result).is_none(),
                "job ids must be unique"
            );
        }
    }

    let online_stats = server.store().stats();
    assert_eq!(
        online_stats.bytes_logical,
        online_stats.bytes_physical + online_stats.bytes_deduped + online_stats.bytes_skipped,
        "daemon store dedup ledger must balance under interleaving"
    );
    let engine = Arc::clone(server.engine());
    drop(server); // graceful: drains, joins workers, releases the lock

    // Phase 2: offline serial replay against a twin store.
    let twin_root = fresh_root(&format!("oracle-{n_clients}-twin"));
    let twin = ChunkStore::open(&twin_root).expect("twin store");
    for (job, on) in &online {
        let off = execute_spec(&twin, &engine, &on.spec);
        match (&on.result_json, &off.result) {
            (Some(on_json), Ok(off_value)) => {
                assert_eq!(on.state, JobState::Done);
                assert_eq!(
                    on_json,
                    &encode_value(off_value),
                    "job {job} ({:?}): online and offline reports must be byte-identical",
                    on.spec
                );
            }
            (None, Err(off_err)) => {
                assert_eq!(on.state, JobState::Failed);
                assert_eq!(
                    on.error.as_deref(),
                    Some(off_err.as_str()),
                    "job {job}: failures must agree"
                );
            }
            (on_result, off_result) => panic!(
                "job {job}: online {:?} vs offline {:?} disagree on success",
                on_result.is_some(),
                off_result.is_ok()
            ),
        }
        // Event payloads carry simulated timestamps, so they are
        // deterministic — but the two sides' pipelines read on their
        // own threads, so *intra-tick ordering* across lanes is a
        // scheduling artifact. The invariant: the event multiset is
        // identical — same kinds, same lanes, same sim times, same
        // counts.
        let on_events: Vec<(u64, String, String)> = {
            let mut v: Vec<_> = on
                .events
                .iter()
                .map(|(_, ts, lane, kind)| (*ts, lane.clone(), kind.clone()))
                .collect();
            v.sort();
            v
        };
        let off_events: Vec<(u64, String, String)> = {
            let mut v: Vec<_> = off
                .events
                .iter()
                .map(|e| (e.ts_ns(), e.lane.clone(), e.kind.type_name().to_owned()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(
            on_events, off_events,
            "job {job}: flight-recorder event multisets must be identical"
        );
        assert_eq!(
            on.ledger,
            (
                off.ledger.events_emitted,
                off.ledger.events_written,
                off.ledger.events_dropped
            ),
            "job {job}: journal ledgers must be identical"
        );
    }

    // The stores themselves must agree: same objects, same ledger.
    let twin_stats = twin.stats();
    assert_eq!(online_stats.objects, twin_stats.objects);
    assert_eq!(online_stats.bytes_logical, twin_stats.bytes_logical);
    assert_eq!(online_stats.bytes_physical, twin_stats.bytes_physical);
    assert_eq!(online_stats.bytes_deduped, twin_stats.bytes_deduped);

    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&twin_root).ok();
}

#[test]
fn oracle_two_concurrent_clients_match_serial_offline() {
    concurrency_equivalence_oracle(2, 0x00A1_1CE5);
}

#[test]
fn oracle_eight_concurrent_clients_match_serial_offline() {
    concurrency_equivalence_oracle(8, 0x0B0B_51ED);
}

#[test]
fn oracle_sixteen_concurrent_clients_match_serial_offline() {
    concurrency_equivalence_oracle(16, 0x00C0_FFEE);
}

/// Running the *same* traffic twice (fresh daemon, fresh store) must
/// reproduce every report byte — the restart-equivalence face of the
/// oracle.
#[test]
fn oracle_repeat_run_is_byte_identical() {
    let collect = |tag: &str| {
        let root = fresh_root(tag);
        let server = Server::start(ServerConfig {
            workers: 2,
            ..ServerConfig::rooted_at(&root)
        })
        .expect("daemon");
        let (ingests, work) = client_traffic(0, 7);
        let mut out = Vec::new();
        for spec in ingests.iter().chain(&work) {
            let job = server.submit("c0", spec.clone()).expect("admitted");
            let status = server.wait(job).expect("known job");
            out.push((
                status.state,
                status.result.as_deref().map(encode_value),
                status.error,
            ));
        }
        drop(server);
        std::fs::remove_dir_all(&root).ok();
        out
    };
    assert_eq!(
        collect("repeat-a")
            .iter()
            .map(|(s, r, e)| (format!("{s:?}"), r.clone(), e.clone()))
            .collect::<Vec<_>>(),
        collect("repeat-b")
            .iter()
            .map(|(s, r, e)| (format!("{s:?}"), r.clone(), e.clone()))
            .collect::<Vec<_>>(),
        "two daemon lifetimes over the same traffic must agree byte-for-byte"
    );
}

/// Seeded multi-thread queue smoke: random enqueue/pop/finish
/// interleavings across worker threads; every admitted job is served
/// exactly once, and shutdown drains rather than drops.
#[test]
fn queue_smoke_seeded_interleaving_never_loses_a_job() {
    for seed in [1u64, 42, 0xDEAD] {
        let queue = Arc::new(JobQueue::new(32, 4));
        let served: Arc<std::sync::Mutex<Vec<u64>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let served = Arc::clone(&served);
                std::thread::spawn(move || {
                    while let Some(job) = queue.pop() {
                        served.lock().unwrap().push(job.id);
                        queue.finish();
                    }
                })
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(seed);
        let mut admitted = Vec::new();
        let mut id = 0u64;
        for _ in 0..200 {
            let client = format!("c{}", rng.gen_range(0..5));
            match queue.enqueue(&client, id, rng.gen_range(1..6)) {
                Ok(()) => {
                    admitted.push(id);
                    id += 1;
                }
                Err(AdmitError::Backpressure {
                    in_flight,
                    capacity,
                }) => {
                    assert!(in_flight >= capacity, "reject only at the bound");
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                Err(AdmitError::ShuttingDown) => unreachable!("not shut down yet"),
            }
        }
        queue.shutdown();
        for w in workers {
            w.join().expect("worker");
        }
        let mut got = served.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, admitted, "seed {seed}: served ≠ admitted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DRR fairness bound, in logical ticks: with equal-cost jobs
    /// (cost = quantum, one job per ring visit) all enqueued up front,
    /// client `c`'s `i`-th job is served within the `i`-th round — its
    /// tick lies in `[i*K, (i+1)*K)` for K clients. Per-client wait
    /// skew is therefore bounded by K−1 ticks at every depth, for any
    /// client count and backlog.
    #[test]
    fn fairness_bounds_per_client_wait_skew(
        k in 2usize..6,
        jobs_each in 1usize..20,
        quantum in 1u64..5,
    ) {
        let queue = JobQueue::new(k * jobs_each + 1, quantum);
        for c in 0..k {
            for j in 0..jobs_each {
                queue
                    .enqueue(&format!("c{c}"), (c * jobs_each + j) as u64, quantum)
                    .expect("capacity covers the backlog");
            }
        }
        let mut depth_of: BTreeMap<String, u64> = BTreeMap::new();
        while let Some(job) = queue.try_pop() {
            let depth = depth_of.entry(job.client.clone()).or_insert(0);
            let round_start = *depth * k as u64;
            prop_assert!(
                (round_start..round_start + k as u64).contains(&job.served_tick),
                "client {} depth {} served at tick {} outside its round",
                job.client, depth, job.served_tick
            );
            *depth += 1;
            queue.finish();
        }
        for depth in depth_of.values() {
            prop_assert_eq!(*depth as usize, jobs_each);
        }
    }

    /// Admission control, adversarially interleaved: accepts iff under
    /// the bound, never deadlocks (pure try_pop draining), never drops
    /// or duplicates an accepted job — across random costs, clients,
    /// capacities, and operation orders.
    #[test]
    fn admission_control_never_deadlocks_or_drops(
        capacity in 1usize..12,
        quantum in 1u64..6,
        ops in proptest::collection::vec((0u8..3, 0usize..4, 1u64..8), 1..200),
    ) {
        let queue = JobQueue::new(capacity, quantum);
        let mut next_id = 0u64;
        let mut accepted = Vec::new();
        let mut popped = Vec::new();
        let mut executing = 0usize;
        for (op, client, cost) in ops {
            match op {
                0 => match queue.enqueue(&format!("c{client}"), next_id, cost) {
                    Ok(()) => {
                        accepted.push(next_id);
                        next_id += 1;
                    }
                    Err(AdmitError::Backpressure { in_flight, capacity: cap }) => {
                        prop_assert_eq!(in_flight, queue.stats().in_flight);
                        prop_assert!(in_flight >= cap, "reject only at the bound");
                    }
                    Err(AdmitError::ShuttingDown) => prop_assert!(false, "never shut down"),
                },
                1 => {
                    if let Some(job) = queue.try_pop() {
                        popped.push(job.id);
                        executing += 1;
                    }
                }
                _ => {
                    if executing > 0 {
                        queue.finish();
                        executing -= 1;
                    }
                }
            }
        }
        // Drain: everything accepted must surface exactly once.
        while let Some(job) = queue.try_pop() {
            popped.push(job.id);
            queue.finish();
        }
        popped.sort_unstable();
        // Accepted ⇔ served, exactly once.
        prop_assert_eq!(popped, accepted);
    }
}
