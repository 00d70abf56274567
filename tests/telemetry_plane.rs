//! The live telemetry plane, end to end.
//!
//! What the suite pins down:
//!
//! * **Ring retention** — the in-memory snapshot ring keeps exactly
//!   the newest `capacity` samples and counts evictions (proptest);
//! * **Prometheus exposition** — a frozen-clock daemon driven by a
//!   fixed serial job load renders the committed
//!   `tests/goldens/telemetry_prom.txt` byte-for-byte;
//! * **Subscriber equivalence** — under concurrent job load with
//!   N ∈ {1, 4} clients, every `subscribe-telemetry` stream, the
//!   server's retained ring, and the persisted `telemetry.jsonl` all
//!   describe the identical snapshot sequence;
//! * **Restart persistence** — a restarted daemon replays its
//!   `telemetry.jsonl` into the ring and continues the sequence, and
//!   the file never holds more than twice the retention;
//! * **Observation is free** — job result documents are byte-identical
//!   whether the background sampler runs at a busy cadence or not at
//!   all (telemetry must never perturb science);
//! * **`top` frames** — the snapshot-history TUI renders the committed
//!   `tests/goldens/top_frames.txt` byte-for-byte, through the library
//!   and through `reprocmp top --file … --keys …` alike;
//! * **Drain under watch** — a daemon told to shut down still answers
//!   every blocked streaming client (watch, subscribe, idle) with a
//!   terminal frame instead of deadlocking the accept loop
//!   (regression: the transport used to join handlers before
//!   draining).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use reprocmp::obs::{prometheus_text, ObsClock, TelemetryRing, TelemetrySnapshot};
use reprocmp::server::{
    pair, serve_connection, ObjectRef, Server, ServerClient, ServerConfig, TcpTransport,
};

const CHUNK: usize = 256;
const VALUES: usize = 1024; // 4 KiB payload

fn fresh_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("reprocmp-telem-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "golden `{name}` drifted (UPDATE_GOLDEN=1 regenerates after an intentional change)"
    );
}

/// Deterministic f32 payload in a per-salt value band.
fn payload(salt: u32) -> Vec<u8> {
    (0..VALUES)
        .flat_map(|i| (f32::from(salt as u16) * 1e3 + (i as f32 * 1e-3).sin()).to_le_bytes())
        .collect()
}

fn perturbed(salt: u32) -> Vec<u8> {
    let mut data = payload(salt);
    // Nudge 1% of the values, mid-payload.
    for i in (VALUES / 2)..(VALUES / 2 + VALUES / 100) {
        let at = i * 4;
        let v = f32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes")) + 0.25;
        data[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
    data
}

fn start_daemon(tag: &str, cadence: Duration, workers: usize, clock: ObsClock) -> Arc<Server> {
    Arc::new(
        Server::start(ServerConfig {
            chunk_bytes: CHUNK,
            workers,
            telemetry_clock: clock,
            telemetry_cadence: cadence,
            telemetry_retention: 64,
            ..ServerConfig::rooted_at(fresh_root(tag))
        })
        .expect("daemon start"),
    )
}

fn session(server: &Arc<Server>, name: &str) -> ServerClient {
    let (client_end, mut server_end) = pair();
    let server = Arc::clone(server);
    std::thread::spawn(move || {
        let _ = serve_connection(&server, &mut server_end);
    });
    ServerClient::over(Box::new(client_end), name).expect("hello")
}

fn obj(name: &str, version: u64) -> ObjectRef {
    ObjectRef {
        name: name.to_owned(),
        version,
    }
}

/// The fixed serial job load behind the byte-exact goldens: two
/// ingests, one compare, one materialize, each awaited in turn.
fn run_serial_load(server: &Arc<Server>) {
    let mut s = session(server, "loader");
    for (version, data) in [(1u64, payload(1)), (2, perturbed(1))] {
        let job = s
            .ingest("base", version, CHUNK as u64, &data)
            .expect("submit ingest");
        assert!(s.wait(job).expect("wait").error.is_none());
    }
    let job = s.compare(obj("base", 1), obj("base", 2)).expect("submit");
    assert!(s.wait(job).expect("wait").error.is_none());
    let job = s.materialize("base", 1).expect("submit");
    assert!(s.wait(job).expect("wait").error.is_none());
}

// ---------------------------------------------------------------------
// Ring retention
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ring keeps exactly the newest `capacity` snapshots, in
    /// order, and counts every eviction.
    #[test]
    fn ring_retains_newest_snapshots_and_counts_evictions(
        capacity in 1usize..12,
        pushes in 0usize..40,
    ) {
        let mut ring = TelemetryRing::new(capacity);
        for i in 0..pushes {
            ring.push(TelemetrySnapshot {
                seq: i as u64 + 1,
                ..TelemetrySnapshot::default()
            });
        }
        prop_assert_eq!(ring.len(), pushes.min(capacity));
        prop_assert_eq!(ring.evicted(), pushes.saturating_sub(capacity) as u64);
        let seqs: Vec<u64> = ring.snapshots().iter().map(|s| s.seq).collect();
        let expected: Vec<u64> = (pushes.saturating_sub(capacity) + 1..=pushes)
            .map(|i| i as u64)
            .collect();
        prop_assert_eq!(seqs, expected);
    }
}

// ---------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------

/// A frozen-clock daemon after the fixed serial load renders the
/// committed Prometheus exposition byte-for-byte. (Sampled after
/// drain, when every worker-side counter is final.)
#[test]
fn prometheus_exposition_matches_the_committed_golden() {
    let server = start_daemon("prom", Duration::ZERO, 1, ObsClock::frozen());
    run_serial_load(&server);
    server.shutdown();
    let snapshot = server.sample_telemetry_now();
    let text = prometheus_text(&snapshot);
    check_golden("telemetry_prom.txt", &text);

    // Well-formedness, independent of the pinned bytes: every line is
    // either a `# TYPE` comment or a two-token sample.
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(line.starts_with("# TYPE "), "bad comment: {line}");
        } else {
            assert_eq!(
                line.split_whitespace().count(),
                2,
                "bad sample line: {line}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Subscriber ≡ ring ≡ telemetry.jsonl
// ---------------------------------------------------------------------

/// Every subscriber's stream, the retained ring, and the persisted
/// JSONL agree on the exact snapshot sequence — under concurrent job
/// load from 1 and 4 clients.
#[test]
fn subscribe_streams_match_ring_and_persisted_jsonl() {
    for clients in [1usize, 4] {
        let server = start_daemon(
            &format!("sub{clients}"),
            Duration::ZERO,
            2,
            ObsClock::frozen(),
        );
        const SAMPLES: u64 = 6;

        // Subscribers race the sampler from the start; the ring-replay
        // path guarantees none of them can miss a snapshot.
        let subscribers: Vec<_> = (0..2)
            .map(|i| {
                let mut s = session(&server, &format!("sub-{i}"));
                std::thread::spawn(move || s.subscribe_telemetry(SAMPLES).expect("subscribe"))
            })
            .collect();

        // Concurrent job load while samples fire.
        let load: Vec<_> = (0..clients)
            .map(|c| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let mut s = session(&server, &format!("load-{c}"));
                    let salt = 10 + c as u32;
                    let name = format!("obj{c}");
                    for (version, data) in [(1u64, payload(salt)), (2, perturbed(salt))] {
                        let job = s
                            .ingest(&name, version, CHUNK as u64, &data)
                            .expect("submit");
                        assert!(s.wait(job).expect("wait").error.is_none());
                    }
                    let job = s.compare(obj(&name, 1), obj(&name, 2)).expect("submit");
                    assert!(s.wait(job).expect("wait").error.is_none());
                })
            })
            .collect();

        for _ in 0..SAMPLES {
            let _ = server.sample_telemetry_now();
        }
        for h in load {
            h.join().expect("load thread");
        }

        let streams: Vec<Vec<TelemetrySnapshot>> = subscribers
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("subscriber thread")
                    .iter()
                    .map(|v| TelemetrySnapshot::from_value(v).expect("snapshot decodes"))
                    .collect()
            })
            .collect();

        let ring = server.telemetry_history();
        assert_eq!(ring.len() as u64, SAMPLES);
        for stream in &streams {
            assert_eq!(stream, &ring, "subscriber stream diverged from the ring");
        }

        // The persisted JSONL holds the same sequence.
        let jsonl = std::fs::read_to_string(server.config().store_root.join("telemetry.jsonl"))
            .expect("telemetry.jsonl written");
        let persisted: Vec<TelemetrySnapshot> = jsonl
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                let v = serde_json::from_str(l).expect("jsonl line parses");
                TelemetrySnapshot::from_value(&v).expect("jsonl snapshot decodes")
            })
            .collect();
        assert_eq!(persisted, ring, "telemetry.jsonl diverged from the ring");

        server.shutdown();
    }
}

/// A restarted daemon replays `telemetry.jsonl` into its ring and
/// continues the sequence numbers where the previous life stopped,
/// whatever else the file has come to hold.
#[test]
fn restart_replays_persisted_history_and_continues_the_sequence() {
    let root = fresh_root("restart");
    let config = || ServerConfig {
        chunk_bytes: CHUNK,
        workers: 1,
        telemetry_clock: ObsClock::frozen(),
        telemetry_cadence: Duration::ZERO,
        telemetry_retention: 64,
        ..ServerConfig::rooted_at(root.clone())
    };
    let first = Server::start(config()).expect("first life");
    for _ in 0..3 {
        let _ = first.sample_telemetry_now();
    }
    let seqs: Vec<u64> = first.telemetry_history().iter().map(|s| s.seq).collect();
    assert_eq!(seqs, vec![1, 2, 3]);
    first.shutdown();
    drop(first);

    // A crash mid-append, or a disk gone bad, leaves lines that are not
    // snapshots: each is skipped, none stops the daemon coming up.
    let jsonl = root.join("telemetry.jsonl");
    let mut history = std::fs::read_to_string(&jsonl).expect("telemetry.jsonl written");
    history.push_str("{\"schema\":1,\"seq\":9,\"que\n");
    history.push_str(&"[".repeat(200_000));
    std::fs::write(&jsonl, history).expect("append hostile lines");

    let second = Server::start(config()).expect("second life");
    let replayed: Vec<u64> = second.telemetry_history().iter().map(|s| s.seq).collect();
    assert_eq!(replayed, vec![1, 2, 3], "history survives the restart");
    let next = second.sample_telemetry_now();
    assert_eq!(next.seq, 4, "sequence continues after restart");
    second.shutdown();
}

/// `telemetry.jsonl` holds at most twice the retention: a restart over
/// a file three times that long rewrites it as the ring, a live daemon
/// keeps it there, and the sequence still continues across both.
#[test]
fn telemetry_jsonl_stays_within_twice_the_retention() {
    const RETENTION: usize = 8;
    let root = fresh_root("bound");
    std::fs::create_dir_all(&root).expect("store root");
    let jsonl = root.join("telemetry.jsonl");
    let history: String = (1..=3 * RETENTION as u64)
        .map(|seq| {
            let snap = TelemetrySnapshot {
                seq,
                ..TelemetrySnapshot::default()
            };
            snap.to_json_line() + "\n"
        })
        .collect();
    std::fs::write(&jsonl, history).expect("write a long history");
    let lines_on_disk = || {
        std::fs::read_to_string(&jsonl)
            .expect("telemetry.jsonl")
            .lines()
            .count()
    };

    let server = Server::start(ServerConfig {
        chunk_bytes: CHUNK,
        workers: 1,
        telemetry_clock: ObsClock::frozen(),
        telemetry_cadence: Duration::ZERO,
        telemetry_retention: RETENTION,
        ..ServerConfig::rooted_at(root.clone())
    })
    .expect("daemon start");
    assert!(
        lines_on_disk() <= 2 * RETENTION,
        "open left {}",
        lines_on_disk()
    );
    let replayed: Vec<u64> = server.telemetry_history().iter().map(|s| s.seq).collect();
    let newest: Vec<u64> = (2 * RETENTION as u64 + 1..=3 * RETENTION as u64).collect();
    assert_eq!(replayed, newest, "the ring keeps the newest lines");

    for expected in 3 * RETENTION as u64 + 1..=6 * RETENTION as u64 {
        assert_eq!(server.sample_telemetry_now().seq, expected);
        assert!(
            lines_on_disk() <= 2 * RETENTION,
            "{} lines",
            lines_on_disk()
        );
    }
    server.shutdown();
    drop(server);

    let persisted: Vec<u64> = std::fs::read_to_string(&jsonl)
        .expect("telemetry.jsonl")
        .lines()
        .map(|l| {
            let v = serde_json::from_str(l).expect("line parses");
            TelemetrySnapshot::from_value(&v).expect("line decodes").seq
        })
        .collect();
    assert!(
        persisted.windows(2).all(|w| w[0] + 1 == w[1]),
        "rewrites keep the file in sequence: {persisted:?}"
    );
    assert_eq!(persisted.last(), Some(&(6 * RETENTION as u64)));
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// Telemetry never perturbs science
// ---------------------------------------------------------------------

/// Job result documents are byte-identical whether the daemon samples
/// telemetry aggressively or not at all.
#[test]
fn job_results_are_byte_identical_with_and_without_telemetry() {
    let run = |tag: &str, cadence: Duration| -> Vec<String> {
        let server = start_daemon(tag, cadence, 2, ObsClock::wall());
        let mut s = session(&server, "science");
        let mut results = Vec::new();
        for (version, data) in [(1u64, payload(7)), (2, perturbed(7))] {
            let job = s
                .ingest("sci", version, CHUNK as u64, &data)
                .expect("submit");
            let status = s.wait(job).expect("wait");
            results.push(serde_json::to_string(&status.result.expect("result")).unwrap());
        }
        let job = s.compare(obj("sci", 1), obj("sci", 2)).expect("submit");
        let status = s.wait(job).expect("wait");
        results.push(serde_json::to_string(&status.result.expect("result")).unwrap());
        server.shutdown();
        results
    };
    let silent = run("sci-off", Duration::ZERO);
    let sampled = run("sci-on", Duration::from_millis(1));
    assert_eq!(
        silent, sampled,
        "telemetry sampling perturbed a job result document"
    );
}

// ---------------------------------------------------------------------
// `top` frame goldens
// ---------------------------------------------------------------------

/// The deterministic snapshot history the `top` goldens replay: the
/// frozen daemon after the serial load, sampled three times.
fn top_history() -> Vec<TelemetrySnapshot> {
    let server = start_daemon("top", Duration::ZERO, 1, ObsClock::frozen());
    run_serial_load(&server);
    server.shutdown();
    for _ in 0..3 {
        let _ = server.sample_telemetry_now();
    }
    server.telemetry_history()
}

/// `TopView` over the deterministic history renders the committed
/// frames byte-for-byte, and `reprocmp top --file … --keys …` over the
/// same history persisted as JSONL prints the identical transcript.
#[test]
fn top_frames_match_the_committed_golden_through_library_and_cli() {
    const KEYS: &str = "h t l q";
    let history = top_history();

    let mut view = reprocmp::analyze::TopView::new(history.clone());
    let mut transcript = String::new();
    for (i, frame) in view.play(KEYS).iter().enumerate() {
        transcript.push_str(&format!("--- frame {i} ---\n"));
        transcript.push_str(frame);
    }
    check_golden("top_frames.txt", &transcript);

    // The CLI offline path over the persisted JSONL form.
    let dir = fresh_root("top-cli");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let jsonl_path = dir.join("telemetry.jsonl");
    let jsonl: String = history.iter().map(|s| s.to_json_line() + "\n").collect();
    std::fs::write(&jsonl_path, jsonl).expect("write jsonl");
    let argv: Vec<String> = [
        "top",
        "--file",
        jsonl_path.to_str().expect("utf8 path"),
        "--keys",
        KEYS,
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let cli_out = reprocmp_cli::run(&argv).expect("cli top");
    assert_eq!(cli_out, transcript, "CLI transcript diverged from library");
}

// ---------------------------------------------------------------------
// Drain under watch (regression)
// ---------------------------------------------------------------------

/// A daemon told to shut down over TCP still answers every blocked
/// streaming client — watch gets its terminal `done`, an open-ended
/// telemetry subscriber gets `telemetry_end`, and an idle connection
/// is unblocked — instead of the accept loop deadlocking on join.
#[test]
fn draining_daemon_answers_blocked_streamers_with_terminal_frames() {
    let server = start_daemon("drain", Duration::ZERO, 1, ObsClock::frozen());
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
    let addr = transport.addr();
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || transport.run(&server))
    };

    // An idle client: connected, silent. The old join-before-drain
    // order hung forever on this handler.
    let idle = ServerClient::connect(addr, "idle").expect("idle connect");

    // A watcher blocked on a job's journal stream.
    let mut submitter = ServerClient::connect(addr, "submitter").expect("connect");
    let job = submitter
        .ingest("drain-obj", 1, CHUNK as u64, &payload(3))
        .expect("submit");
    let watcher = std::thread::spawn(move || {
        let mut s = ServerClient::connect(addr, "watcher").expect("connect");
        s.watch(job).expect("watch answered")
    });

    // An open-ended telemetry subscriber (runs until shutdown).
    let subscriber = std::thread::spawn(move || {
        let mut s = ServerClient::connect(addr, "subscriber").expect("connect");
        s.subscribe_telemetry(0).expect("subscribe answered")
    });
    let _ = server.sample_telemetry_now();

    // Let the streamers actually park server-side, then pull the plug.
    std::thread::sleep(Duration::from_millis(50));
    let mut stopper = ServerClient::connect(addr, "stopper").expect("connect");
    stopper.shutdown_server().expect("shutdown ack");

    let (events, summary) = watcher.join().expect("watcher thread");
    assert_eq!(summary.state, reprocmp::server::JobState::Done);
    assert_eq!(
        events.len() as u64,
        summary.events_written,
        "watch streamed exactly the written journal"
    );
    let streamed = subscriber.join().expect("subscriber thread");
    assert!(
        !streamed.is_empty(),
        "subscriber saw the pre-shutdown sample"
    );
    accept
        .join()
        .expect("accept thread")
        .expect("transport run returns cleanly");
    drop(idle);
}
