//! One operation layer: every decision about a checkpoint that the CLI
//! and the daemon both need, made in one place (DESIGN.md §17).
//!
//! * layout — [`Image::parse`]: VELOC header + regions by magic, else
//!   raw little-endian `f32` in a multiple of 4 bytes;
//! * segments — [`Image::segments`]: `__header` + one per region
//!   ([`CheckpointFile::segments`]), or one [`RAW_SEGMENT`];
//! * metadata — [`Image::metadata`]: over the payload only, never empty;
//! * delta policy — [`ingest`];
//! * `name@version` — [`ObjectRef::parse`], [`resolve`], [`versions`];
//! * opening — [`open_file`], [`open_stored`], [`open_run`]: a source
//!   with the regions its payload is made of; a file from its header
//!   alone, with or without a tree.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;

use reprocmp_io::CostModel;
use reprocmp_merkle::{decode_tree, MerkleTree};
use reprocmp_store::{ChunkStore, DeltaPolicy, Digested, IngestStats, StoreError, HEADER_SEGMENT};
use reprocmp_veloc::format::MAGIC;
use reprocmp_veloc::{decode_checkpoint, decode_header, CheckpointFile, CkptCodecError};
use serde::{Deserialize, Serialize};

use crate::engine::CompareEngine;
use crate::history::CheckpointHistory;
use crate::regions::RegionMap;
use crate::source::CheckpointSource;
use crate::storesrc::store_err;
use crate::CoreError;

/// Segment name of a raw (headerless) `f32` image in the store.
pub const RAW_SEGMENT: &str = "payload";

/// Named payload regions as `(name, byte length)`, in payload order.
pub type Regions = Vec<(String, u64)>;

/// Why an operation did not happen.
#[derive(Debug)]
pub enum OpError {
    /// A malformed object reference: the caller's usage, not the data.
    Usage(String),
    /// Input that is no checkpoint image, holds no value, or won't read.
    Input(String),
    /// The store refused (unknown object, already present, corrupt).
    Store(StoreError),
    /// The engine refused (configuration, metadata, I/O).
    Core(CoreError),
}

impl OpError {
    /// Names the file an input error came from.
    #[must_use]
    pub fn at(self, path: &Path) -> Self {
        match self {
            OpError::Input(what) => OpError::Input(format!("{}: {what}", path.display())),
            other => other,
        }
    }
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::Usage(what) | OpError::Input(what) => f.write_str(what),
            OpError::Store(e) => e.fmt(f),
            OpError::Core(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for OpError {}

impl From<StoreError> for OpError {
    fn from(e: StoreError) -> Self {
        OpError::Store(e)
    }
}

impl From<CoreError> for OpError {
    fn from(e: CoreError) -> Self {
        OpError::Core(e)
    }
}

/// A stored object reference: `name@version`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectRef {
    /// Checkpoint name.
    pub name: String,
    /// Checkpoint version.
    pub version: u64,
}

impl ObjectRef {
    /// Parses a strict `name@version`; a bare name is a usage error.
    pub fn parse(spec: &str) -> Result<Self, OpError> {
        match split_spec(spec)? {
            (name, Some(version)) => Ok(ObjectRef {
                name: name.to_owned(),
                version,
            }),
            (_, None) => Err(OpError::Usage(format!(
                "object ref `{spec}` must be name@version"
            ))),
        }
    }
}

fn split_spec(spec: &str) -> Result<(&str, Option<u64>), OpError> {
    match spec.rsplit_once('@') {
        Some((name, raw)) => raw.parse().map(|v| (name, Some(v))).map_err(|_| {
            OpError::Usage(format!("object ref `{spec}`: cannot parse version `{raw}`"))
        }),
        None => Ok((spec, None)),
    }
}

/// The versions a run spec names: the one `name@version` pins, or
/// every stored version of a bare name, oldest first (none is an error).
pub fn versions(store: &ChunkStore, spec: &str) -> Result<(String, Vec<u64>), OpError> {
    let (name, versions) = match split_spec(spec)? {
        (name, Some(version)) => (name, vec![version]),
        (name, None) => (name, store.versions(name)),
    };
    if versions.is_empty() {
        return Err(OpError::Input(format!(
            "store holds no versions of `{spec}`"
        )));
    }
    Ok((name.to_owned(), versions))
}

/// One object for a run spec: a bare name means its newest version.
pub fn resolve(store: &ChunkStore, spec: &str) -> Result<ObjectRef, OpError> {
    let (name, mut versions) = versions(store, spec)?;
    let version = versions.pop().expect("versions() returns at least one");
    Ok(ObjectRef { name, version })
}

/// A checkpoint image in memory, its layout decided.
#[derive(Debug)]
pub struct Image<'a> {
    bytes: &'a [u8],
    /// The VELOC header; `None` for a raw `f32` image.
    header: Option<CheckpointFile>,
}

impl<'a> Image<'a> {
    /// A VELOC image by its magic (the header is decoded, the payload
    /// not touched), else raw `f32`, which must be whole values.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, OpError> {
        let header = if bytes.starts_with(MAGIC) {
            Some(decode_checkpoint(bytes).map_err(input)?)
        } else {
            whole_values(bytes.len() as u64)?;
            None
        };
        Ok(Image { bytes, header })
    }

    /// The application's checkpoint version; 0 for a raw image.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.header.as_ref().map_or(0, |h| h.checkpoint_version)
    }

    /// The `f32` payload bytes.
    #[must_use]
    pub fn payload(&self) -> &'a [u8] {
        match &self.header {
            Some(h) => &self.bytes[h.payload_offset as usize..][..h.payload_len as usize],
            None => self.bytes,
        }
    }

    /// The store segments this image becomes.
    #[must_use]
    pub fn segments(&self) -> Vec<(&str, &[u8])> {
        match &self.header {
            Some(h) => h.segments(self.bytes),
            None => vec![(RAW_SEGMENT, self.bytes)],
        }
    }

    /// The named regions of a VELOC payload; a raw image names none.
    #[must_use]
    fn regions(&self) -> Option<Regions> {
        self.header.as_ref().map(regions_of)
    }

    /// Encoded ε-metadata over the payload bytes, hashed in place.
    pub fn metadata(&self, engine: &CompareEngine) -> Result<Vec<u8>, OpError> {
        Ok(engine.encode_payload_metadata(self.nonempty_payload()?))
    }

    fn nonempty_payload(&self) -> Result<&'a [u8], OpError> {
        match self.payload() {
            [] => Err(OpError::Input("holds no f32 payload".to_owned())),
            payload => Ok(payload),
        }
    }
}

fn input(e: impl ToString) -> OpError {
    OpError::Input(e.to_string())
}

/// A raw image is whole little-endian `f32` values.
fn whole_values(len: u64) -> Result<(), OpError> {
    if len.is_multiple_of(4) {
        Ok(())
    } else {
        Err(input(
            "neither a reprocmp checkpoint nor a multiple-of-4-byte raw f32 image",
        ))
    }
}

fn regions_of(header: &CheckpointFile) -> Regions {
    let regions = header.regions.iter();
    regions.map(|r| (r.name.clone(), r.count * 4)).collect()
}

/// Bytes of a VELOC image read after its magic to find its layout: a
/// header with a few short region names fits. A region table that runs
/// past them doubles the read until it parses or the whole file is in.
const HEADER_PREFIX: usize = 256;

/// The layout of the file at `path` and its length, reading only the
/// VELOC header: a raw image needs only its length, and the magic that
/// tells it apart, so no payload byte is read here that stage 2 reads
/// again. Errors read as [`Image::parse`]'s do on the whole file.
fn read_layout(path: &Path) -> Result<(Option<CheckpointFile>, u64), OpError> {
    let file = File::open(path).map_err(input)?;
    let file_len = file.metadata().map_err(input)?.len();
    let mut prefix = vec![0; file_len.min(MAGIC.len() as u64) as usize];
    file.read_exact_at(&mut prefix, 0).map_err(input)?;
    if !prefix.starts_with(MAGIC) {
        whole_values(file_len)?;
        return Ok((None, file_len));
    }
    loop {
        let have = prefix.len();
        let want = file_len.min(HEADER_PREFIX.max(2 * have) as u64) as usize;
        prefix.resize(want, 0);
        file.read_exact_at(&mut prefix[have..], have as u64)
            .map_err(input)?;
        match decode_header(&prefix, file_len) {
            Err(CkptCodecError::Truncated) if (want as u64) < file_len => {}
            header => return Ok((Some(header.map_err(input)?), file_len)),
        }
    }
}

/// What [`ingest`] did: the store's ledger, and how many ε-leaves its
/// capture hashed — every chunk's when captured fresh, only the changed
/// chunks' when a parent's leaves were reused, none without metadata.
#[derive(Debug, Clone, Copy)]
pub struct Ingested {
    /// The store's ledger for the ingest.
    pub stats: IngestStats,
    /// ε-leaves hashed for the metadata.
    pub leaves_hashed: u64,
}

/// Captures `image` as `name@version`: its segments, payload metadata
/// when `meta` names an engine, and a differential ingest under `delta`.
/// The raw chunk digests are taken once, before the store's lock, and
/// also decide which ε-leaves a parent lends (DESIGN.md §11).
pub fn ingest(
    store: &ChunkStore,
    name: &str,
    version: u64,
    image: &Image<'_>,
    chunk_bytes: usize,
    meta: Option<&CompareEngine>,
    delta: Option<&DeltaPolicy>,
) -> Result<Ingested, OpError> {
    let segments = image.segments();
    let digested = Digested::new(&segments, chunk_bytes);
    let (meta, leaves_hashed) = match meta {
        Some(engine) => capture(store, name, version, image, &digested, engine)?,
        None => (Vec::new(), 0),
    };
    let stats = store.ingest_digested(name, version, &digested, &meta, delta)?;
    Ok(Ingested {
        stats,
        leaves_hashed,
    })
}

/// ε-metadata over `image`'s payload and the leaves hashed for it:
/// seeded by the parent's tree where [`reusable_parent`] finds one, else
/// a fresh capture.
fn capture(
    store: &ChunkStore,
    name: &str,
    version: u64,
    image: &Image<'_>,
    digested: &Digested<'_>,
    engine: &CompareEngine,
) -> Result<(Vec<u8>, u64), OpError> {
    let payload = image.nonempty_payload()?;
    Ok(
        match reusable_parent(store, name, version, payload, digested, engine) {
            Some((tree, dirty)) => (
                engine.encode_payload_metadata_from(payload, tree, &dirty),
                dirty.len() as u64,
            ),
            None => (
                engine.encode_payload_metadata(payload),
                payload.len().div_ceil(engine.config().chunk_bytes) as u64,
            ),
        },
    )
}

/// The tree of the latest older version of `name`, and the payload
/// chunks whose raw digests differ from its (DESIGN.md §11, "ε-metadata
/// reuse"): `None` unless its metadata decodes as this engine's tree
/// over a payload of this length, in the chunks the store addresses
/// both payloads by.
fn reusable_parent(
    store: &ChunkStore,
    name: &str,
    version: u64,
    payload: &[u8],
    digested: &Digested<'_>,
    engine: &CompareEngine,
) -> Option<(MerkleTree, Vec<usize>)> {
    let (chunk_bytes, len) = (engine.config().chunk_bytes, payload.len() as u64);
    if digested.chunk_bytes() != chunk_bytes {
        return None;
    }
    let parent = store.versions(name).into_iter().filter(|&v| v < version);
    let layout = store.layout(name, parent.max()?).ok()?;
    let tree = decode_tree(&layout.meta).ok()?;
    let fits = layout.chunk_bytes as usize == chunk_bytes
        && layout.payload_len() == len
        && tree.chunk_bytes() == chunk_bytes
        && tree.data_len() == len
        && tree.error_bound() == engine.quantizer().bound();
    let old = layout.payload_chunk_digests?;
    let new = digested.payload_chunk_digests()?;
    let dirty = (0..new.len()).filter(|&i| old.get(i) != Some(&new[i]));
    fits.then(|| (tree, dirty.collect()))
}

/// A checkpoint opened for comparison.
#[derive(Debug, Clone)]
pub struct Opened {
    /// What the engine compares.
    pub source: CheckpointSource,
    /// The payload's named regions; `None` for a raw `f32` file.
    pub regions: Option<Regions>,
}

impl Opened {
    /// Flat value index → region attribution, when regions are named.
    #[must_use]
    pub fn region_map(&self) -> Option<RegionMap> {
        let regions = self.regions.as_ref()?;
        let segments = regions.iter().map(|(name, len)| (name.as_str(), *len));
        Some(RegionMap::from_segment_bytes(segments, HEADER_SEGMENT))
    }
}

/// Opens a checkpoint file, reading only its header here. With `tree`,
/// stage 1 compares trees and stage 2 reads the flagged chunks from the
/// file; without, the source has no ε-metadata and a compare streams
/// and verifies every chunk.
pub fn open_file(path: &Path, tree: Option<&Path>) -> Result<Opened, OpError> {
    let (header, file_len) = read_layout(path).map_err(|e| e.at(path))?;
    let (offset, len) = header
        .as_ref()
        .map_or((0, file_len), |h| (h.payload_offset, h.payload_len));
    let source = match tree {
        Some(tree) => CheckpointSource::from_files(path, offset, len, tree)?,
        None if len == 0 => return Err(input("holds no f32 payload").at(path)),
        None => CheckpointSource::from_file(path, offset, len)?,
    };
    let regions = header.as_ref().map(regions_of);
    Ok(Opened { source, regions })
}

/// Reads a checkpoint file whole and builds its ε-metadata in memory,
/// for the multi-run verbs on files (`history`, `analyze`,
/// `compare-many` without a store), whose batch scheduler and stage-1
/// probes need a tree on every side. The read buffer becomes the
/// payload: a VELOC header is drained from it in place, not copied past.
pub fn open_hashed(path: &Path, engine: &CompareEngine) -> Result<Opened, OpError> {
    let mut bytes = std::fs::read(path).map_err(|e| input(e).at(path))?;
    let image = Image::parse(&bytes).map_err(|e| e.at(path))?;
    image.nonempty_payload().map_err(|e| e.at(path))?;
    let regions = image.regions();
    if let Some(h) = image.header {
        bytes.truncate((h.payload_offset + h.payload_len) as usize);
        bytes.drain(..h.payload_offset as usize);
    }
    let source = CheckpointSource::from_payload(bytes, engine, CostModel::free(), None)?;
    Ok(Opened { source, regions })
}

/// Opens a stored object ([`CheckpointSource::from_store`]); its regions
/// are the manifest's segments past the leading header.
pub fn open_stored(
    store: &ChunkStore,
    object: &ObjectRef,
    engine: &CompareEngine,
) -> Result<Opened, OpError> {
    let layout = store
        .layout(&object.name, object.version)
        .map_err(store_err)?;
    let source = CheckpointSource::from_layout(store, &layout, engine)?;
    let segments = layout.segments.into_iter();
    let regions = segments
        .skip_while(|(name, _)| name == HEADER_SEGMENT)
        .collect();
    Ok(Opened {
        source,
        regions: Some(regions),
    })
}

/// A run as the multi-run verbs name one: a run spec in `store` when
/// there is one, else a checkpoint file hashed in memory.
pub fn open_run(
    store: Option<&ChunkStore>,
    spec: &str,
    engine: &CompareEngine,
) -> Result<Opened, OpError> {
    match store {
        Some(store) => open_stored(store, &resolve(store, spec)?, engine),
        None => open_hashed(Path::new(spec), engine),
    }
}

/// One run's history from checkpoints keyed `(rank, iteration)`, with
/// the first one's regions (one layout names a run's checkpoints).
pub fn history(
    opened: impl IntoIterator<Item = ((usize, u64), Result<Opened, OpError>)>,
) -> Result<(CheckpointHistory, Option<Regions>), OpError> {
    let mut history = CheckpointHistory::new();
    let mut first_regions = None;
    for ((rank, iteration), opened) in opened {
        let Opened { source, regions } = opened?;
        first_regions.get_or_insert(regions);
        history.insert(rank, iteration, source);
    }
    Ok((history, first_regions.flatten()))
}

/// One run's history out of `store`: the versions a run spec names, as
/// rank-0 iterations.
pub fn stored_history(
    store: &ChunkStore,
    spec: &str,
    engine: &CompareEngine,
) -> Result<(CheckpointHistory, Option<Regions>), OpError> {
    let (name, versions) = versions(store, spec)?;
    history(versions.into_iter().map(|version| {
        let object = ObjectRef {
            name: name.clone(),
            version,
        };
        ((0, version), open_stored(store, &object, engine))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use reprocmp_veloc::encode_checkpoint;

    fn engine() -> CompareEngine {
        CompareEngine::new(EngineConfig {
            chunk_bytes: 64,
            error_bound: 1e-5,
            ..EngineConfig::default()
        })
    }

    fn raw(values: &[f32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn object_refs_parse_strictly_and_run_specs_resolve() {
        assert_eq!(
            ObjectRef::parse("a@b@7").unwrap(),
            ObjectRef {
                name: "a@b".to_owned(),
                version: 7
            }
        );
        assert!(matches!(ObjectRef::parse("bare"), Err(OpError::Usage(_))));
        assert!(matches!(ObjectRef::parse("a@x"), Err(OpError::Usage(_))));

        let root = std::env::temp_dir().join(format!("reprocmp-ops-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = ChunkStore::open(&root).unwrap();
        for version in [3, 1, 2] {
            store
                .ingest("r", version, &[("x", &[0u8; 8])], 64, &[])
                .unwrap();
        }
        assert_eq!(resolve(&store, "r").unwrap().version, 3);
        assert_eq!(
            resolve(&store, "r@9").unwrap().version,
            9,
            "pins are not checked"
        );
        assert_eq!(versions(&store, "r").unwrap().1, vec![1, 2, 3]);
        assert!(matches!(versions(&store, "ghost"), Err(OpError::Input(_))));
        assert!(matches!(versions(&store, "r@v"), Err(OpError::Usage(_))));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_veloc_image_is_its_header_and_regions_and_only_its_payload_is_hashed() {
        let x = [1.0f32, 2.0, 3.0];
        let vx = [-1.0f32; 20];
        let bytes = encode_checkpoint(8, &[("x", &x), ("vx", &vx)]);
        let image = Image::parse(&bytes).unwrap();
        assert_eq!(image.version(), 8);
        let names: Vec<&str> = image.segments().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, [HEADER_SEGMENT, "x", "vx"]);
        assert_eq!(
            image.regions(),
            Some(vec![("x".to_owned(), 12), ("vx".to_owned(), 80)])
        );
        let payload: Vec<f32> = x.iter().chain(&vx).copied().collect();
        let headerless = raw(&payload);
        assert_eq!(image.payload(), headerless);
        let e = engine();
        assert_eq!(
            image.metadata(&e).unwrap(),
            Image::parse(&headerless).unwrap().metadata(&e).unwrap(),
            "the header is never hashed"
        );
    }

    #[test]
    fn a_raw_image_is_one_payload_segment_of_whole_values() {
        let bytes = raw(&[0.5, 0.25]);
        let image = Image::parse(&bytes).unwrap();
        assert_eq!(image.version(), 0);
        assert_eq!(image.segments(), vec![(RAW_SEGMENT, &bytes[..])]);
        assert_eq!(image.regions(), None);
        assert!(matches!(Image::parse(&bytes[..7]), Err(OpError::Input(_))));
        let empty = Image::parse(&[]).unwrap();
        assert!(matches!(empty.metadata(&engine()), Err(OpError::Input(_))));
    }

    #[test]
    fn a_file_without_a_tree_fails_as_a_whole_file_read_did() {
        let dir = std::env::temp_dir().join(format!("reprocmp-ops-bare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let veloc = encode_checkpoint(1, &[("x", &[1.0; 4])]);
        let cases: [(&str, &[u8], &str); 3] = [
            ("empty.f32", &[], "holds no f32 payload"),
            (
                "odd.f32",
                &[0; 7],
                "neither a reprocmp checkpoint nor a multiple-of-4-byte raw f32 image",
            ),
            ("cut.ckpt", &veloc[..20], "checkpoint file truncated"),
        ];
        for (name, bytes, what) in cases {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            let err = open_file(&path, None).unwrap_err();
            assert!(matches!(err, OpError::Input(_)), "{name}: {err:?}");
            assert_eq!(err.to_string(), format!("{}: {what}", path.display()));
        }
        let (short, long) = (dir.join("short.f32"), dir.join("long.f32"));
        std::fs::write(&short, raw(&[1.0; 2])).unwrap();
        std::fs::write(&long, raw(&[1.0; 3])).unwrap();
        let open = |path: &Path| open_file(path, None).unwrap().source;
        let err = engine()
            .compare(&open(&short), &open(&long), &crate::Ctx::default())
            .unwrap_err();
        assert!(matches!(err, CoreError::Mismatch(_)), "{err:?}");
        assert_eq!(
            err.to_string(),
            "metadata/config mismatch: payload sizes differ: 8 vs 12"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_truncated_veloc_header_is_an_input_error() {
        let bytes = encode_checkpoint(1, &[("x", &[1.0; 4])]);
        assert!(matches!(
            Image::parse(&bytes[..bytes.len() - 1]),
            Err(OpError::Input(_))
        ));
    }
}
