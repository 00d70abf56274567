//! The filesystem seam: every store mutation crosses this boundary.
//!
//! [`StoreFs`] abstracts the four primitive mutations the store (and
//! the veloc flush path) performs — staging writes, atomic renames,
//! journal appends, unlinks — so a crash-point torture harness can
//! substitute [`CrashFs`], which consults a
//! [`CrashPlan`](reprocmp_io::CrashPlan) at every boundary and can cut
//! power exactly at mutation *k*, torn writes and dropped renames
//! included. Production code uses [`RealFs`], a zero-cost passthrough
//! to `std::fs` with the same fsync discipline the store always had.

use reprocmp_io::{CrashDecision, CrashPlan, MutationKind};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Primitive filesystem mutations, each tagged with the publish
/// boundary it represents so an injected crash can be attributed.
pub trait StoreFs: Send + Sync + std::fmt::Debug {
    /// Creates `tmp` with exactly `bytes`, fsynced.
    fn write_tmp(&self, tmp: &Path, bytes: &[u8], kind: MutationKind) -> std::io::Result<()>;

    /// Atomically renames `tmp` over `dst`, publishing it.
    fn publish(&self, tmp: &Path, dst: &Path, kind: MutationKind) -> std::io::Result<()>;

    /// Appends `bytes` to `path` (creating it if absent), fsynced.
    fn append(&self, path: &Path, bytes: &[u8], kind: MutationKind) -> std::io::Result<()>;

    /// Unlinks `path`.
    fn remove(&self, path: &Path, kind: MutationKind) -> std::io::Result<()>;

    /// The `.tmp`-stage-then-rename idiom: full contents land in
    /// `{path}.tmp` (fsynced), then an atomic rename publishes them.
    /// `publish_kind` names the rename boundary (pack seal, manifest
    /// publish, index swap, or a generic rename). A telemetry rewrite
    /// is telemetry in both halves.
    fn write_atomic(
        &self,
        path: &Path,
        bytes: &[u8],
        publish_kind: MutationKind,
    ) -> std::io::Result<()> {
        let tmp = crate::tmp_path(path);
        let stage_kind = match publish_kind {
            MutationKind::Telemetry => MutationKind::Telemetry,
            _ => MutationKind::TmpWrite,
        };
        self.write_tmp(&tmp, bytes, stage_kind)?;
        self.publish(&tmp, path, publish_kind)
    }
}

/// The production seam: plain `std::fs` with fsync on staged writes.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

/// A shared handle to the production seam.
#[must_use]
pub fn real_fs() -> Arc<dyn StoreFs> {
    Arc::new(RealFs)
}

impl StoreFs for RealFs {
    fn write_tmp(&self, tmp: &Path, bytes: &[u8], _kind: MutationKind) -> std::io::Result<()> {
        let mut f = std::fs::File::create(tmp)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn publish(&self, tmp: &Path, dst: &Path, _kind: MutationKind) -> std::io::Result<()> {
        std::fs::rename(tmp, dst)
    }

    fn append(&self, path: &Path, bytes: &[u8], _kind: MutationKind) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn remove(&self, path: &Path, _kind: MutationKind) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// The torture seam: consults a [`CrashPlan`] before every mutation.
/// A `Crash` decision performs nothing and fails; a `TornWrite`
/// decision leaves a strict prefix of the staged bytes on disk, then
/// fails. Once the plan has crashed, every further mutation fails —
/// the machine is off until the harness reopens with [`RealFs`].
#[derive(Debug)]
pub struct CrashFs {
    plan: Arc<CrashPlan>,
}

impl CrashFs {
    /// Wraps the production seam with `plan`.
    #[must_use]
    pub fn new(plan: Arc<CrashPlan>) -> Self {
        CrashFs { plan }
    }

    /// The governing plan (for arming and inspecting).
    #[must_use]
    pub fn plan(&self) -> &Arc<CrashPlan> {
        &self.plan
    }
}

impl StoreFs for CrashFs {
    fn write_tmp(&self, tmp: &Path, bytes: &[u8], kind: MutationKind) -> std::io::Result<()> {
        match self.plan.step(kind, Some(bytes.len())) {
            CrashDecision::Proceed => RealFs.write_tmp(tmp, bytes, kind),
            CrashDecision::Crash => Err(CrashPlan::crash_error()),
            CrashDecision::TornWrite { keep } => {
                // The torn prefix is made durable — the worst case for
                // recovery is a *persisted* partial file, not a lost one.
                RealFs.write_tmp(tmp, &bytes[..keep], kind).ok();
                Err(CrashPlan::crash_error())
            }
        }
    }

    fn publish(&self, tmp: &Path, dst: &Path, kind: MutationKind) -> std::io::Result<()> {
        match self.plan.step(kind, None) {
            CrashDecision::Proceed => RealFs.publish(tmp, dst, kind),
            _ => Err(CrashPlan::crash_error()),
        }
    }

    fn append(&self, path: &Path, bytes: &[u8], kind: MutationKind) -> std::io::Result<()> {
        match self.plan.step(kind, Some(bytes.len())) {
            CrashDecision::Proceed => RealFs.append(path, bytes, kind),
            CrashDecision::Crash => Err(CrashPlan::crash_error()),
            CrashDecision::TornWrite { keep } => {
                RealFs.append(path, &bytes[..keep], kind).ok();
                Err(CrashPlan::crash_error())
            }
        }
    }

    fn remove(&self, path: &Path, kind: MutationKind) -> std::io::Result<()> {
        match self.plan.step(kind, None) {
            CrashDecision::Proceed => RealFs.remove(path, kind),
            _ => Err(CrashPlan::crash_error()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reprocmp_io::CrashMode;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("reprocmp-store-fs-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_fs_write_atomic_round_trips() {
        let dir = temp_dir("real");
        let path = dir.join("file.bin");
        RealFs
            .write_atomic(&path, b"hello", MutationKind::Rename)
            .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        assert!(!crate::tmp_path(&path).exists());
        RealFs
            .append(&path, b" world", MutationKind::JournalAppend)
            .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello world");
        RealFs.remove(&path, MutationKind::Unlink).unwrap();
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_fs_drops_the_rename_and_keeps_the_tmp() {
        let dir = temp_dir("droppedrename");
        let path = dir.join("file.bin");
        // Mutation 1 = tmp write (succeeds), 2 = rename (crashes).
        let plan = CrashPlan::at(2, CrashMode::Before);
        let fs = CrashFs::new(Arc::clone(&plan));
        fs.plan().arm();
        let err = fs
            .write_atomic(&path, b"payload", MutationKind::IndexSwap)
            .unwrap_err();
        assert!(err.to_string().contains("power failure"));
        assert!(!path.exists(), "rename was dropped");
        assert!(
            crate::tmp_path(&path).exists(),
            "tmp file survives the crash"
        );
        // The machine stays off.
        assert!(fs
            .write_atomic(&path, b"again", MutationKind::IndexSwap)
            .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_fs_leaves_a_torn_prefix() {
        let dir = temp_dir("torn");
        let path = dir.join("file.bin");
        let plan = CrashPlan::at(1, CrashMode::Torn { seed: 3 });
        let fs = CrashFs::new(plan);
        fs.plan().arm();
        assert!(fs
            .write_atomic(&path, &[7u8; 256], MutationKind::ManifestPublish)
            .is_err());
        let tmp = crate::tmp_path(&path);
        assert!(tmp.exists());
        let torn = std::fs::read(&tmp).unwrap();
        assert!(
            torn.len() < 256,
            "a strict prefix landed, got {}",
            torn.len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
