//! `index.bin` is a checkpoint of derived state, not a per-operation
//! rewrite.
//!
//! Two properties, both measured rather than timed:
//!
//! * **bytes written track the change** — under a byte-counting
//!   [`StoreFs`], the 200th ingest of a fixed-churn series writes what
//!   the 2nd did, because neither rewrites an index that grew sevenfold in
//!   between;
//! * **a stale checkpoint is never loaded** — a store abandoned without
//!   its closing checkpoint (`mem::forget`, or its directory copied
//!   mid-life) reopens to exactly the index a clean close would have
//!   left, so `gc` frees nothing live and every object still
//!   materialises byte-exactly.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use reprocmp_io::MutationKind;
use reprocmp_store::{ChunkStore, DeltaPolicy, RealFs, StoreConfig, StoreFs};

const CHUNK: usize = 256;
const CHUNKS: usize = 64;

fn fresh_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("reprocmp-ckpt-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

/// One chunk of bytes no other `(salt, chunk)` pair produces.
fn chunk(salt: u64, index: usize) -> Vec<u8> {
    let mut state = (salt << 20 | index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..CHUNK)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

/// Version `v` of the series: the base image (`v == 0`) with two
/// chunks — a different pair each version — replaced by fresh bytes.
fn version(v: u64) -> Vec<u8> {
    let fresh = [(2 * v as usize) % CHUNKS, (2 * v as usize + 1) % CHUNKS];
    (0..CHUNKS)
        .flat_map(|i| chunk(if fresh.contains(&i) { v } else { 0 }, i))
        .collect()
}

/// The real filesystem, counting every byte staged or appended.
#[derive(Debug, Default)]
struct CountingFs {
    written: AtomicU64,
}

impl StoreFs for CountingFs {
    fn write_tmp(&self, tmp: &Path, bytes: &[u8], kind: MutationKind) -> std::io::Result<()> {
        self.written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        RealFs.write_tmp(tmp, bytes, kind)
    }

    fn publish(&self, tmp: &Path, dst: &Path, kind: MutationKind) -> std::io::Result<()> {
        RealFs.publish(tmp, dst, kind)
    }

    fn append(&self, path: &Path, bytes: &[u8], kind: MutationKind) -> std::io::Result<()> {
        self.written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        RealFs.append(path, bytes, kind)
    }

    fn remove(&self, path: &Path, kind: MutationKind) -> std::io::Result<()> {
        RealFs.remove(path, kind)
    }
}

#[test]
fn an_ingest_writes_in_proportion_to_its_own_chunks_not_the_stores() {
    let root = fresh_root("bytes");
    let fs = Arc::new(CountingFs::default());
    let store = ChunkStore::open_with(&root, StoreConfig::with_fs(fs.clone())).unwrap();
    // Ingest #1 is the base image; every later one churns two chunks.
    let per_ingest: Vec<u64> = (0..200u64)
        .map(|v| {
            let before = fs.written.load(Ordering::Relaxed);
            let stats = store
                .ingest("run", v, &[("data", &version(v))], CHUNK, &[])
                .unwrap();
            assert_eq!(stats.chunks_stored, if v == 0 { 64 } else { 2 }, "v{v}");
            fs.written.load(Ordering::Relaxed) - before
        })
        .collect();

    // Same pack, same manifest, same two journal records — and no
    // index, which by #200 is seven times the size it was at #2.
    let (second, last) = (per_ingest[1], per_ingest[199]);
    assert!(
        last.abs_diff(second) * 10 <= second,
        "ingest #200 wrote {last} B, ingest #2 wrote {second} B"
    );

    // The checkpoints the series did take are geometric: together they
    // add under a tenth to what 199 ingests of #2's size write.
    let after_first: u64 = per_ingest[1..].iter().sum();
    assert!(
        after_first * 10 <= second * 199 * 11,
        "199 ingests wrote {after_first} B against {second} B each"
    );

    // Everything written is still everything needed.
    drop(store);
    let store = ChunkStore::open(&root).unwrap();
    assert!(!root.join("journal.bin").exists(), "clean close resets it");
    for v in [0, 1, 65, 199] {
        assert_eq!(store.materialize("run", v).unwrap(), version(v), "v{v}");
    }
    std::fs::remove_dir_all(&root).ok();
}

const POLICY: DeltaPolicy = DeltaPolicy {
    anchor_every: 8,
    max_depth: 16,
};

type Live = Vec<(&'static str, u64, Vec<u8>)>;

/// Operations that between them move refcounts every way the store
/// can: full and delta ingests, a flatten, removes, and a re-ingest
/// that revives chunks a remove had left at refcount zero.
const HISTORY: [fn(&ChunkStore, &mut Live); 8] = [
    |s, live| {
        s.ingest("a", 1, &[("data", &version(1))], CHUNK, &[])
            .unwrap();
        live.push(("a", 1, version(1)));
    },
    |s, live| {
        s.ingest_delta("a", 2, &[("data", &version(2))], CHUNK, &[], &POLICY)
            .unwrap();
        live.push(("a", 2, version(2)));
    },
    |s, live| {
        s.ingest("b", 1, &[("data", &version(3))], CHUNK, &[])
            .unwrap();
        live.push(("b", 1, version(3)));
    },
    |s, _| assert!(s.flatten("a", 2).unwrap()),
    |s, live| {
        s.remove("a", 1).unwrap();
        live.retain(|(n, v, _)| (*n, *v) != ("a", 1));
    },
    |s, live| {
        s.remove("b", 1).unwrap();
        live.retain(|(n, v, _)| (*n, *v) != ("b", 1));
    },
    // b@1's own chunks sit at refcount zero, unswept: this ingest
    // revives them by reference alone, writing no pack.
    |s, live| {
        let stats = s
            .ingest("c", 1, &[("data", &version(3))], CHUNK, &[])
            .unwrap();
        assert_eq!(stats.chunks_stored, 0);
        live.push(("c", 1, version(3)));
    },
    |s, live| {
        s.ingest_delta("c", 2, &[("data", &version(4))], CHUNK, &[], &POLICY)
            .unwrap();
        live.push(("c", 2, version(4)));
    },
];

/// Runs the first `steps` operations against the store at `root`,
/// closing it cleanly after `close_after` of them (so `index.bin` is a
/// checkpoint of exactly that prefix) and reopening for the rest.
/// Returns the still-open store and what it must hold.
fn history(root: &Path, steps: usize, close_after: usize) -> (ChunkStore, Live) {
    let mut live = Live::new();
    let mut store = ChunkStore::open(root).unwrap();
    for (done, op) in HISTORY[..steps].iter().enumerate() {
        if done == close_after {
            drop(store);
            store = ChunkStore::open(root).unwrap();
        }
        op(&store, &mut live);
    }
    (store, live)
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), dst).unwrap();
        }
    }
}

/// Reopens `root`, which no clean close brought up to date, and holds
/// it to the clean twin's `index.bin`.
fn assert_recovers(root: &Path, clean_index: &[u8], live: &[(&str, u64, Vec<u8>)], ctx: &str) {
    let store = ChunkStore::open(root).unwrap();
    assert_eq!(
        std::fs::read(root.join("index.bin")).unwrap(),
        clean_index,
        "{ctx}: reopened index differs from the cleanly closed twin's"
    );
    store.gc().unwrap();
    for (name, version, bytes) in live {
        assert_eq!(
            &store.materialize(name, *version).unwrap(),
            bytes,
            "{ctx}: {name}@{version}"
        );
    }
    assert!(store.scrub().unwrap().is_clean(), "{ctx}: scrub");
}

#[test]
fn a_store_abandoned_without_its_closing_checkpoint_reopens_exact() {
    for steps in 1..=8 {
        for close_after in 0..steps {
            let ctx = format!("after {steps} operations, checkpoint after {close_after}");
            let tag = format!("{steps}-{close_after}");

            // The twin that closes cleanly: its index.bin is the reference.
            let clean = fresh_root(&format!("clean-{tag}"));
            let (store, live) = history(&clean, steps, close_after);
            drop(store);
            let clean_index = std::fs::read(clean.join("index.bin")).unwrap();

            // Abandoned mid-life: the handle is never dropped. Its
            // directory is copied first, while the handle still lives.
            // `index.bin` is then the checkpoint of the first
            // `close_after` operations: with 6 of 7 it lists every
            // digest the manifests name, and two of them at the
            // refcount zero that `c@1` has since revived — the one
            // staleness a membership check cannot see.
            let forgotten = fresh_root(&format!("forgot-{tag}"));
            let copied = fresh_root(&format!("copied-{tag}"));
            let (store, _) = history(&forgotten, steps, close_after);
            copy_dir(&forgotten, &copied);
            std::mem::forget(store);
            assert!(
                forgotten.join("journal.bin").exists() || steps == 1,
                "{ctx}"
            );

            assert_recovers(&forgotten, &clean_index, &live, &format!("forgotten {ctx}"));
            assert_recovers(&copied, &clean_index, &live, &format!("copied {ctx}"));
            for root in [clean, forgotten, copied] {
                std::fs::remove_dir_all(&root).ok();
            }
        }
    }
}
