//! The cross-front-end oracle: the CLI and the daemon are two doors to
//! one operation layer, so the same checkpoint must come out the same
//! whichever door it went through.
//!
//! * **Ingest, three ways** — `reprocmp ingest --with-meta`, the
//!   daemon's offline executor (`execute_spec`), and a live daemon
//!   session over the in-process transport. Each object's
//!   `ObjectLayout` — segments, payload offset, chunk digests and the
//!   ε-metadata blob — must be equal across the three stores.
//! * **Compare, four ways** — the CLI on files with precomputed trees,
//!   the CLI on files without trees, `compare --store`, and a daemon
//!   compare job. The report documents must be equal once the fields
//!   that describe *how* a comparison ran, rather than what it found,
//!   are set aside (see [`PROVENANCE`]). Without trees every chunk is
//!   verified, so that door's `chunks_flagged`, `bytes_reread` and
//!   `false_positive_chunks` are derived exactly from the reference's
//!   (see [`without_trees`]).
//!
//! * **A delta chain** — `ingest --with-meta --delta` and the daemon's
//!   ingest of the same four versions store equal layouts, each version's
//!   metadata a fresh capture's though the parent lent most leaves; and
//!   every case where a parent cannot lend them captures fresh.
//!
//! The inputs are one pair of VELOC checkpoints from two `simulate`
//! runs with different reduction orders, one raw `f32` pair, and a
//! generated four-version chain.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use reprocmp::core::ops::{self, Image};
use reprocmp::core::{CompareEngine, EngineConfig};
use reprocmp::server::{
    execute_spec, pair, serve_connection, ClientError, JobSpec, JobState, ObjectRef, Server,
    ServerClient, ServerConfig,
};
use reprocmp::store::{ChunkStore, DeltaPolicy};
use reprocmp::veloc::encode_checkpoint;
use serde::Value;

const CHUNK_BYTES: usize = 256;
const ERROR_BOUND: f64 = 1e-9;

/// Report fields excluded from the comparison, each with why it may
/// legitimately differ between front-ends.
const PROVENANCE: [(&str, &str); 8] = [
    (
        "breakdown",
        "phase timings: wall clock in the CLI, the job's simulated clock in the daemon",
    ),
    (
        "stages",
        "per-stage time, and capture phases that only on-the-fly hashing runs",
    ),
    (
        "io",
        "stage-2 pipeline op counts depend on the storage behind the source \
         (file, memory, pack reader)",
    ),
    (
        "store",
        "pack-read counters exist only for store-backed sources",
    ),
    (
        "capture",
        "differential-capture savings belong to store objects, not files",
    ),
    (
        "chain",
        "delta-chain depth belongs to store objects, not files",
    ),
    (
        "histograms",
        "the CLI's --json adds registry latency histograms",
    ),
    ("gauges", "the CLI's --json adds registry gauges"),
];

/// What must remain after [`PROVENANCE`] is set aside: the findings.
const FINDINGS: [&str; 5] = [
    "stats",
    "differences",
    "differences_truncated",
    "unverified",
    "cache",
];

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("reprocmp-front-ends-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn cli(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
    reprocmp_cli::run(&argv).unwrap_or_else(|e| panic!("reprocmp {args:?}: {e}"))
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

fn engine_args() -> [String; 4] {
    [
        "--chunk-bytes".to_owned(),
        CHUNK_BYTES.to_string(),
        "--error-bound".to_owned(),
        ERROR_BOUND.to_string(),
    ]
}

fn cli_with_engine(args: &[&str]) -> String {
    let extra = engine_args();
    let mut all: Vec<&str> = args.to_vec();
    all.extend(extra.iter().map(String::as_str));
    cli(&all)
}

/// A report document reduced to its findings, as canonical JSON.
fn findings(report: &Value) -> String {
    let Value::Object(fields) = report else {
        panic!("a report is an object: {report:?}");
    };
    let kept: Vec<(String, Value)> = fields
        .iter()
        .filter(|(k, _)| !PROVENANCE.iter().any(|(p, _)| p == k))
        .cloned()
        .collect();
    let keys: Vec<&str> = kept.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys, FINDINGS,
        "a report field is neither finding nor provenance"
    );
    // Through the text codec once, so a document that never left memory
    // and one parsed from CLI output are compared in the same form.
    let text = serde_json::to_string(&Value::Object(kept)).expect("encode");
    serde_json::to_string(&serde_json::from_str(&text).expect("decode")).expect("encode")
}

/// The findings of a compare without trees, from those of one with
/// trees: every chunk flagged and re-read, and every chunk that is not
/// truly different a false positive.
fn without_trees(findings: &str) -> String {
    let Value::Object(mut fields) = serde_json::from_str(findings).expect("findings") else {
        panic!("findings are an object");
    };
    let (_, Value::Object(stats)) = fields.iter_mut().find(|(k, _)| k == "stats").unwrap() else {
        panic!("stats are an object");
    };
    let stat = |stats: &[(String, Value)], key: &str| {
        let (_, v) = stats.iter().find(|(k, _)| k == key).unwrap();
        v.as_u64().unwrap()
    };
    let total = stat(stats, "chunks_total");
    let differing = stat(stats, "chunks_flagged") - stat(stats, "false_positive_chunks");
    let bytes = stat(stats, "total_bytes");
    for (key, value) in stats.iter_mut() {
        match key.as_str() {
            "chunks_flagged" => *value = Value::UInt(total),
            "bytes_reread" => *value = Value::UInt(bytes),
            "false_positive_chunks" => *value = Value::UInt(total - differing),
            _ => {}
        }
    }
    serde_json::to_string(&Value::Object(fields)).expect("encode")
}

/// One checkpoint pair as files, with the names it is stored under.
struct Pair {
    tag: &'static str,
    files: [PathBuf; 2],
    name: &'static str,
}

fn simulated_pair(dir: &Path) -> Pair {
    for (run, seed) in [("run1", "1"), ("run2", "2")] {
        cli(&[
            "simulate",
            "--out-dir",
            path_str(dir),
            "--particles",
            "512",
            "--steps",
            "10",
            "--ranks",
            "1",
            "--order-seed",
            seed,
            "--run-name",
            run,
        ]);
    }
    Pair {
        tag: "simulated",
        files: ["run1", "run2"].map(|run| dir.join(format!("pfs/{run}.rank0.v000008.ckpt"))),
        name: "hacc",
    }
}

fn raw_pair(dir: &Path) -> Pair {
    let base: Vec<f32> = (0..3000).map(|i| (i as f32 * 0.01).sin()).collect();
    let mut moved = base.clone();
    for i in [17, 1500, 1501, 2999] {
        moved[i] += 0.5;
    }
    let files = [dir.join("a.f32"), dir.join("b.f32")];
    for (path, values) in files.iter().zip([&base, &moved]) {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(path, bytes).expect("write raw pair");
    }
    Pair {
        tag: "raw",
        files,
        name: "raw",
    }
}

fn object(name: &str, version: u64) -> ObjectRef {
    ObjectRef {
        name: name.to_owned(),
        version,
    }
}

#[test]
fn cli_executor_and_daemon_ingest_alike_and_four_compares_agree() {
    let dir = fresh_dir("oracle");
    let pairs = [simulated_pair(&dir.join("sim")), raw_pair(&dir)];

    let cli_store = dir.join("cli-store");
    let executor = ChunkStore::open(&dir.join("executor-store")).expect("executor store");
    let engine = CompareEngine::new(EngineConfig {
        chunk_bytes: CHUNK_BYTES,
        error_bound: ERROR_BOUND,
        ..EngineConfig::default()
    });
    let server = Arc::new(
        Server::start(ServerConfig {
            chunk_bytes: CHUNK_BYTES,
            error_bound: ERROR_BOUND,
            telemetry_cadence: Duration::ZERO,
            ..ServerConfig::rooted_at(dir.join("daemon-store"))
        })
        .expect("daemon"),
    );
    let (client_end, mut server_end) = pair();
    let serving = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || serve_connection(&server, &mut server_end))
    };
    let mut session = ServerClient::over(Box::new(client_end), "oracle").expect("hello");

    for p in &pairs {
        for (file, version) in p.files.iter().zip([1u64, 2]) {
            let version_arg = version.to_string();
            cli_with_engine(&[
                "ingest",
                "--store",
                path_str(&cli_store),
                "--input",
                path_str(file),
                "--name",
                p.name,
                "--version",
                &version_arg,
                "--with-meta",
            ]);
            let data = std::fs::read(file).expect("read checkpoint");
            let spec = JobSpec::Ingest {
                name: p.name.to_owned(),
                version,
                chunk_bytes: CHUNK_BYTES,
                data: data.clone(),
            };
            let offline = execute_spec(&executor, &engine, &spec);
            assert!(offline.result.is_ok(), "{:?}", offline.result);
            let job = session
                .ingest(p.name, version, CHUNK_BYTES as u64, &data)
                .expect("submit ingest");
            let status = session.wait(job).expect("wait ingest");
            assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        }
    }

    // Ingest: one manifest, whichever front-end wrote it.
    let cli_view = ChunkStore::open(&cli_store).expect("reopen the CLI's store");
    for p in &pairs {
        for version in [1, 2] {
            let by_cli = cli_view.layout(p.name, version).expect("CLI object");
            let by_executor = executor.layout(p.name, version).expect("executor object");
            let by_daemon = server
                .store()
                .layout(p.name, version)
                .expect("daemon object");
            assert!(!by_cli.meta.is_empty(), "{}@{version} has metadata", p.name);
            for (door, layout) in [("execute_spec", by_executor), ("daemon", by_daemon)] {
                // Segments first: a readable failure before the blob's.
                assert_eq!(
                    layout.segments, by_cli.segments,
                    "{}@{version}: {door} vs CLI",
                    p.name
                );
                assert!(layout == by_cli, "{}@{version}: {door} vs CLI", p.name);
            }
        }
    }
    let header = cli_view.layout("hacc", 1).expect("VELOC object").segments;
    assert_eq!(
        header[0].0, "__header",
        "a VELOC image keeps its header apart"
    );
    assert!(header.len() > 2, "one segment per region");

    // Compare: the same findings four ways.
    for p in &pairs {
        let trees = [0, 1].map(|i| dir.join(format!("{}.{i}.tree", p.tag)));
        for (file, tree) in p.files.iter().zip(&trees) {
            cli_with_engine(&[
                "create-tree",
                "--input",
                path_str(file),
                "--output",
                path_str(tree),
            ]);
        }
        let [f1, f2] = p.files.each_ref().map(|f| path_str(f));
        let with_trees = cli_with_engine(&[
            "compare",
            "--run1",
            f1,
            "--run2",
            f2,
            "--tree1",
            path_str(&trees[0]),
            "--tree2",
            path_str(&trees[1]),
            "--json",
        ]);
        let no_trees = cli_with_engine(&["compare", "--run1", f1, "--run2", f2, "--json"]);
        let (r1, r2) = (format!("{}@1", p.name), format!("{}@2", p.name));
        let from_store = cli_with_engine(&[
            "compare",
            "--store",
            path_str(&cli_store),
            "--run1",
            &r1,
            "--run2",
            &r2,
            "--json",
        ]);
        let job = session
            .compare(object(p.name, 1), object(p.name, 2))
            .expect("submit compare");
        let status = session.wait(job).expect("wait compare");
        let by_daemon = status
            .result
            .unwrap_or_else(|| panic!("compare job failed: {:?}", status.error));

        let parse = |text: &str| serde_json::from_str(text).expect("compare --json parses");
        let reference = findings(&parse(&with_trees));
        for (way, report, want) in [
            (
                "files without trees",
                parse(&no_trees),
                without_trees(&reference),
            ),
            ("compare --store", parse(&from_store), reference.clone()),
            ("daemon compare job", by_daemon, reference.clone()),
        ] {
            assert_eq!(
                findings(&report),
                want,
                "{} pair: {way} disagrees with files + trees",
                p.tag
            );
        }
        if p.tag == "raw" {
            assert!(reference.contains("\"diff_count\":4"), "{reference}");
        }
    }

    drop(session);
    serving.join().expect("serve thread").expect("serve to EOF");
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

fn engine_with(chunk_bytes: usize, error_bound: f64) -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes,
        error_bound,
        ..EngineConfig::default()
    })
}

/// A VELOC image of `data` cut into regions of `region_values` values.
fn image(version: u64, data: &[f32], region_values: usize) -> Vec<u8> {
    let names: Vec<String> = (0..data.len().div_ceil(region_values))
        .map(|i| format!("r{i}"))
        .collect();
    let regions: Vec<(&str, &[f32])> = names
        .iter()
        .map(String::as_str)
        .zip(data.chunks(region_values))
        .collect();
    encode_checkpoint(version, &regions)
}

/// `data` with one value moved in each of the 64-value chunks listed.
fn churned(data: &[f32], chunks: &[usize]) -> Vec<f32> {
    let mut out = data.to_vec();
    for &c in chunks {
        out[c * 64 + 7] += 0.25;
    }
    out
}

#[test]
fn a_delta_chain_ingests_alike_and_every_fallback_captures_fresh() {
    let dir = fresh_dir("delta");
    let engine = engine_with(CHUNK_BYTES, ERROR_BOUND);
    let base: Vec<f32> = (0..2560).map(|i| (i as f32 * 0.003).cos()).collect();
    let mut versions = vec![base.clone()];
    for churn in [[3, 4, 5], [20, 21, 39], [0, 17, 18]] {
        versions.push(churned(versions.last().unwrap(), &churn));
    }

    let cli_store = dir.join("cli-store");
    let server = Arc::new(
        Server::start(ServerConfig {
            chunk_bytes: CHUNK_BYTES,
            error_bound: ERROR_BOUND,
            telemetry_cadence: Duration::ZERO,
            ..ServerConfig::rooted_at(dir.join("daemon-store"))
        })
        .expect("daemon"),
    );
    let (client_end, mut server_end) = pair();
    let serving = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || serve_connection(&server, &mut server_end))
    };
    let mut session = ServerClient::over(Box::new(client_end), "delta").expect("hello");
    for (i, values) in versions.iter().enumerate() {
        let version = i as u64 + 1;
        let data = image(version, values, 640);
        let file = dir.join(format!("chain.v{version}.ckpt"));
        std::fs::write(&file, &data).expect("write version");
        let version_arg = version.to_string();
        cli_with_engine(&[
            "ingest",
            "--store",
            path_str(&cli_store),
            "--input",
            path_str(&file),
            "--name",
            "chain",
            "--version",
            &version_arg,
            "--with-meta",
            "--delta",
        ]);
        let job = session
            .ingest("chain", version, CHUNK_BYTES as u64, &data)
            .expect("submit ingest");
        let status = session.wait(job).expect("wait ingest");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    }
    let cli_view = ChunkStore::open(&cli_store).expect("reopen the CLI's store");
    assert_eq!(cli_view.chain("chain", 4).expect("chain").len(), 4);
    for (i, values) in versions.iter().enumerate() {
        let version = i as u64 + 1;
        let by_cli = cli_view.layout("chain", version).expect("CLI object");
        let by_daemon = server.store().layout("chain", version).expect("daemon");
        assert!(by_daemon == by_cli, "chain@{version}: daemon vs CLI");
        let fresh =
            engine.encode_payload_metadata(Image::parse(&image(1, values, 640)).unwrap().payload());
        assert!(by_cli.meta == fresh, "chain@{version}: not a fresh capture");
    }
    drop(session);
    serving.join().expect("serve thread").expect("serve to EOF");
    drop(server);

    // One parent, one child: the child's metadata is a fresh capture's
    // whatever the parent holds, and it hashes every leaf unless the
    // parent can lend them.
    let child = churned(&base, &[9, 10]);
    let leaves = (child.len() * 4).div_ceil(CHUNK_BYTES) as u64;
    let captured = |what: &str, parent: (&[u8], usize, Vec<u8>), child: (&[u8], usize)| {
        let store = ChunkStore::open(&dir.join(what.replace(' ', "-"))).expect("store");
        let first = Image::parse(parent.0).unwrap();
        store
            .ingest("row", 1, &first.segments(), parent.1, &parent.2)
            .expect("parent");
        let image = Image::parse(child.0).unwrap();
        let delta = DeltaPolicy::default();
        let done = ops::ingest(
            &store,
            "row",
            2,
            &image,
            child.1,
            Some(&engine),
            Some(&delta),
        )
        .expect("child");
        let meta = store.layout("row", 2).expect("child").meta;
        assert!(
            meta == engine.encode_payload_metadata(image.payload()),
            "{what}: not a fresh capture"
        );
        done.leaves_hashed
    };
    let meta = |e: &CompareEngine, data: &[u8]| {
        e.encode_payload_metadata(Image::parse(data).unwrap().payload())
    };
    let (parent, kid) = (image(1, &base, 640), image(2, &child, 640));
    let own = meta(&engine, &parent);
    let lent = captured(
        "parent lends",
        (&parent, CHUNK_BYTES, own.clone()),
        (&kid, CHUNK_BYTES),
    );
    assert_eq!(lent, 2, "only the two changed chunks are hashed");
    let short = image(1, &base[..2304], 576);
    let unaligned = (image(1, &base, 600), image(2, &child, 600));
    for (what, parent, child) in [
        (
            "parent eps differs",
            (
                &parent[..],
                CHUNK_BYTES,
                meta(&engine_with(CHUNK_BYTES, 1e-6), &parent),
            ),
            (&kid[..], CHUNK_BYTES),
        ),
        (
            "parent chunk size differs",
            (
                &parent[..],
                512,
                meta(&engine_with(512, ERROR_BOUND), &parent),
            ),
            (&kid[..], CHUNK_BYTES),
        ),
        (
            "store chunk size is not the engine's",
            (&parent[..], 512, own.clone()),
            (&kid[..], 512),
        ),
        (
            "payload length differs",
            (&short[..], CHUNK_BYTES, meta(&engine, &short)),
            (&kid[..], CHUNK_BYTES),
        ),
        (
            "parent metadata empty",
            (&parent[..], CHUNK_BYTES, Vec::new()),
            (&kid[..], CHUNK_BYTES),
        ),
        (
            "parent metadata undecodable",
            (&parent[..], CHUNK_BYTES, b"not a tree".to_vec()),
            (&kid[..], CHUNK_BYTES),
        ),
        (
            "regions not chunk-aligned",
            (&unaligned.0[..], CHUNK_BYTES, meta(&engine, &unaligned.0)),
            (&unaligned.1[..], CHUNK_BYTES),
        ),
    ] {
        assert_eq!(
            captured(what, parent, child),
            leaves,
            "{what}: a fresh capture"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The layout rule is the daemon's too: an upload that is neither a
/// VELOC image nor whole `f32` values is refused with an error frame,
/// and nothing is queued or stored.
#[test]
fn a_daemon_upload_of_partial_values_is_refused_at_the_wire() {
    let dir = fresh_dir("partial");
    let server = Arc::new(
        Server::start(ServerConfig {
            telemetry_cadence: Duration::ZERO,
            ..ServerConfig::rooted_at(dir.join("store"))
        })
        .expect("daemon"),
    );
    let (client_end, mut server_end) = pair();
    let serving = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || serve_connection(&server, &mut server_end))
    };
    let mut session = ServerClient::over(Box::new(client_end), "partial").expect("hello");
    match session.ingest("odd", 1, 4096, &[1, 2, 3, 4, 5, 6, 7]) {
        Err(ClientError::Server { message }) => {
            assert!(message.contains("multiple-of-4"), "{message}")
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert_eq!(server.queue().stats().admitted, 0);
    assert!(server.store().objects().is_empty());
    drop(session);
    serving.join().expect("serve thread").expect("serve to EOF");
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
