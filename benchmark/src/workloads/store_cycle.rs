//! `store_cycle`: one op is a whole history cycle through the capture
//! store — full ingest, three delta ingests, a store-backed compare,
//! four materializes, four removes, gc.
//!
//! It puts writes beside reads beside background reclamation, so a gain
//! in read speed, write speed or space that costs one of the others
//! shows.

use std::path::{Path, PathBuf};

use super::compare::phase_spans;
use super::{
    fresh_dir, path_str, payload_values, read_file, serial_window, write_file, Limit, Mode,
    SerialOps, Window, Workload,
};
use crate::emit::scan_u64;
use crate::gen::{self, SplitMix64, CHUNK_BYTES, CHUNK_VALUES, EPS};
use crate::procfs::dir_bytes;
use crate::surface::{self as sys, Ledger, Res};
use crate::trace::Tracer;

/// Small enough that a ten-second window holds 100 whole cycles.
pub const CKPT_VALUES: usize = 512 << 10; // 2 MiB
const VERSIONS: u64 = 4;
const CHURN_SHARE: f64 = 0.05;
const CHURN_RUN_CHUNKS: usize = 8;
pub const NAME: &str = "hist";

pub struct StoreCycle {
    store_root: PathBuf,
    replay_root: PathBuf,
    /// `files[n - 1]` holds version `n`.
    files: Vec<PathBuf>,
    payloads: Vec<Vec<f32>>,
    images: Vec<Vec<u8>>,
    /// v1 against v4: `(diff_count, truly different chunks)`.
    truth: (u64, u64),
    peak_store_bytes: u64,
    engine: sys::Engine,
}

/// What one cycle produced, for the check.
pub struct CycleOut {
    ledgers: Vec<Ledger>,
    compare_json: String,
    materialized: Vec<Vec<u8>>,
    peak_store_bytes: u64,
    store_bytes_after_gc: u64,
}

fn run_spec(version: u64) -> String {
    format!("{NAME}@{version}")
}

fn parse_ledger(json: &str) -> Res<Ledger> {
    let field = |key| scan_u64(json, key).ok_or_else(|| format!("no `{key}` in ingest --json"));
    Ok(Ledger {
        logical: field("bytes_logical")?,
        physical: field("bytes_physical")?,
        deduped: field("bytes_deduped")?,
        skipped: field("bytes_skipped")?,
    })
}

/// The opaque op: `reprocmp ingest --with-meta [--delta] --json`.
pub fn cli_ingest(root: &Path, file: &Path, version: u64, delta: bool) -> Res<Ledger> {
    let (chunk, eps, version) = (
        CHUNK_BYTES.to_string(),
        EPS.to_string(),
        version.to_string(),
    );
    let mut args = vec![
        "ingest",
        "--store",
        path_str(root),
        "--input",
        path_str(file),
        "--name",
        NAME,
        "--version",
        &version,
        "--chunk-bytes",
        &chunk,
        "--error-bound",
        &eps,
        "--with-meta",
        "--json",
    ];
    if delta {
        args.push("--delta");
    }
    parse_ledger(&sys::cli(&args)?)
}

/// The CLI's `ingest --with-meta` as public layer calls in its order.
pub fn replay_ingest(
    root: &Path,
    file: &Path,
    version: u64,
    delta: bool,
    engine: &sys::Engine,
    t: &mut Tracer,
) -> Res<Ledger> {
    let bytes = t.span("cli.read_file", || read_file(file))?;
    let layout = t.span("veloc.decode_checkpoint", || sys::decode_checkpoint(&bytes))?;
    let payload = &bytes[layout.payload_offset..layout.payload_offset + layout.payload_len];
    let values = t.span("cli.payload_values", || payload_values(payload));
    let meta = t.span("core.encode_metadata", || {
        sys::encode_metadata(engine, &values)
    });
    let store = t.span("store.open", || sys::store_open(root))?;
    let segments = sys::ingest_segments(&bytes, &layout);
    let name = if delta {
        "store.ingest_delta"
    } else {
        "store.ingest"
    };
    t.span(name, || {
        sys::store_ingest(&store, NAME, version, &segments, &meta, delta)
    })
}

impl StoreCycle {
    fn image_bytes(&self) -> u64 {
        self.images[0].len() as u64
    }
}

impl Workload for StoreCycle {
    const NAME: &'static str = "store_cycle";

    fn setup(seed: u64, dir: &Path) -> Res<Self> {
        let dir = fresh_dir(dir)?;
        let mut rng = SplitMix64::new(seed);
        let mut payloads = vec![gen::base_values(&mut rng, CKPT_VALUES)];
        for _ in 1..VERSIONS {
            let prev = payloads.last().expect("v1 exists");
            payloads.push(gen::churn(&mut rng, prev, CHURN_SHARE, CHURN_RUN_CHUNKS).0);
        }
        let mut files = Vec::new();
        let mut images = Vec::new();
        for (i, values) in payloads.iter().enumerate() {
            let version = i as u64 + 1;
            let path = dir.join(format!("{NAME}.v{version}.ckpt"));
            let image = sys::encode_checkpoint(version, &gen::regions(values));
            write_file(&path, &image)?;
            files.push(path);
            images.push(image);
        }
        Ok(StoreCycle {
            store_root: dir.join("store"),
            replay_root: dir.join("replay-store"),
            files,
            payloads,
            images,
            truth: (0, 0),
            peak_store_bytes: 0,
            engine: sys::engine(),
        })
    }

    fn oracle(&mut self) -> Res<()> {
        let payloads = std::mem::take(&mut self.payloads);
        let (first, last) = (&payloads[0], &payloads[VERSIONS as usize - 1]);
        let mut truth = (0u64, 0u64);
        for (ca, cb) in first.chunks(CHUNK_VALUES).zip(last.chunks(CHUNK_VALUES)) {
            let diffs = ca
                .iter()
                .zip(cb)
                .filter(|(x, y)| (f64::from(**x) - f64::from(**y)).abs() > EPS)
                .count() as u64;
            truth.0 += diffs;
            truth.1 += u64::from(diffs > 0);
        }
        self.truth = truth;
        Ok(())
    }

    fn window(&mut self, limit: Limit, mode: Mode) -> Window {
        serial_window(self, limit, mode.tracer())
    }

    fn stored_bytes_per_user_byte(&self) -> f64 {
        self.peak_store_bytes as f64 / (VERSIONS * self.image_bytes()) as f64
    }

    fn object_bytes(&self) -> u64 {
        (CKPT_VALUES * 4) as u64
    }

    fn teardown(self) -> Res<()> {
        Ok(())
    }
}

impl SerialOps for StoreCycle {
    type Out = CycleOut;

    fn cycle_len(&self) -> u64 {
        1
    }

    fn op(&mut self, _k: u64) -> Res<CycleOut> {
        let root = path_str(&self.store_root);
        let ledgers = (1..=VERSIONS)
            .map(|v| cli_ingest(&self.store_root, &self.files[v as usize - 1], v, v > 1))
            .collect::<Res<Vec<_>>>()?;
        let peak_store_bytes = dir_bytes(&self.store_root);
        let compare_json = sys::cli(&[
            "compare",
            "--store",
            root,
            "--run1",
            &run_spec(1),
            "--run2",
            &run_spec(VERSIONS),
            "--chunk-bytes",
            &CHUNK_BYTES.to_string(),
            "--error-bound",
            &EPS.to_string(),
            "--json",
        ])?;
        // The CLI has no materialize verb: open the store like a
        // restart would and reassemble every version.
        let materialized = {
            let store = sys::store_open(&self.store_root)?;
            (1..=VERSIONS)
                .map(|v| sys::store_materialize(&store, NAME, v))
                .collect::<Res<Vec<_>>>()?
        };
        // A delta pins its parent, so the chain goes tail first.
        for v in (1..=VERSIONS).rev() {
            sys::cli(&["store-remove", "--store", root, "--run", &run_spec(v)])?;
        }
        sys::cli(&["gc", "--store", root, "--json"])?;
        Ok(CycleOut {
            ledgers,
            compare_json,
            materialized,
            peak_store_bytes,
            store_bytes_after_gc: dir_bytes(&self.store_root),
        })
    }

    fn check(&mut self, _k: u64, out: CycleOut) -> Res<u64> {
        for (i, ledger) in out.ledgers.iter().enumerate() {
            if !ledger.exact() || ledger.logical != self.image_bytes() {
                return Err(format!(
                    "ingest v{} ledger does not add up: {ledger:?}",
                    i + 1
                ));
            }
            if i > 0 && ledger.skipped == 0 {
                return Err(format!("delta ingest v{} skipped nothing", i + 1));
            }
        }
        let count = |key| {
            scan_u64(&out.compare_json, key).ok_or_else(|| format!("no `{key}` in compare --json"))
        };
        let confirmed = count("chunks_flagged")? - count("false_positive_chunks")?;
        if (count("diff_count")?, confirmed) != self.truth {
            return Err(format!(
                "compare --store reported ({}, {confirmed}) (differences, chunks), truth is {:?}",
                count("diff_count")?,
                self.truth
            ));
        }
        for (v, bytes) in out.materialized.iter().enumerate() {
            if *bytes != self.images[v] {
                return Err(format!("materialize v{} is not byte-exact", v + 1));
            }
        }
        if out.store_bytes_after_gc >= out.peak_store_bytes {
            return Err("gc reclaimed nothing".to_owned());
        }
        self.peak_store_bytes = out.peak_store_bytes;
        Ok(VERSIONS * self.image_bytes())
    }

    fn replay(&mut self, _k: u64, t: &mut Tracer) -> Res<()> {
        let root = &self.replay_root;
        for v in 1..=VERSIONS {
            replay_ingest(root, &self.files[v as usize - 1], v, v > 1, &self.engine, t)?;
        }
        {
            let store = t.span("store.open", || sys::store_open(root))?;
            let a = t.span("core.source_from_store", || {
                sys::source_from_store(&store, NAME, 1, &self.engine)
            })?;
            let b = t.span("core.source_from_store", || {
                sys::source_from_store(&store, NAME, VERSIONS, &self.engine)
            })?;
            let id = t.begin("core.engine_compare");
            let summary = sys::engine_compare(&self.engine, &a, &b);
            t.end(id);
            t.reported_children(id, &phase_spans(&summary?));
        }
        {
            let store = t.span("store.open", || sys::store_open(root))?;
            for v in 1..=VERSIONS {
                t.span("store.materialize", || {
                    sys::store_materialize(&store, NAME, v)
                })?;
            }
        }
        for v in (1..=VERSIONS).rev() {
            let store = t.span("store.open", || sys::store_open(root))?;
            t.span("store.remove", || sys::store_remove(&store, NAME, v))?;
        }
        let store = t.span("store.open", || sys::store_open(root))?;
        t.span("store.gc", || sys::store_gc(&store))?;
        Ok(())
    }
}
