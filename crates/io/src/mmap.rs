//! The mmap-style synchronous backend the paper compares io_uring
//! against (Figure 9).
//!
//! Memory-mapping a checkpoint file makes every first touch of a page a
//! synchronous page fault: the faulting thread stalls for a full device
//! round-trip, faults cannot be batched, and the effective granularity
//! is the 4 KiB page regardless of how few bytes the application wants.
//! [`MmapSim`] charges that cost structure to a [`Storage`]'s clock,
//! for the pipeline's `Mmap` backend to charge before each op's read:
//! ranges are rounded out to page boundaries, a non-resident page
//! triggers a *synchronous* fault that loads a readahead window
//! (kernel fault-around), and a resident set models the page cache
//! (re-touching a page is free for the mapping's lifetime).
//! Readahead is what keeps real
//! mmap only ~3x slower than io_uring rather than orders of
//! magnitude: each synchronous device round-trip amortizes over the
//! window, but the faulting thread still stalls once per window and
//! over-reads beyond what it needed.

use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;

use crate::cost::OpSpec;
use crate::storage::{AccessMode, Storage};

/// Page size (4 KiB, as on the evaluation platform).
pub const PAGE_SIZE: usize = 4096;

/// Default readahead window in pages (512 KiB, a Lustre-like client
/// readahead).
pub const READAHEAD_PAGES: usize = 128;

/// The page-fault cost of a simulated memory-mapped view of a storage
/// object.
#[derive(Debug)]
pub struct MmapSim {
    storage: Arc<dyn Storage>,
    readahead_pages: usize,
    resident: Mutex<BTreeSet<u64>>,
}

impl MmapSim {
    /// Maps `storage` with the default readahead and nothing resident.
    #[must_use]
    pub fn new(storage: Arc<dyn Storage>) -> Self {
        MmapSim {
            storage,
            readahead_pages: READAHEAD_PAGES,
            resident: Mutex::new(BTreeSet::new()),
        }
    }

    /// Number of currently resident pages.
    #[cfg(test)]
    fn resident_pages(&self) -> usize {
        self.resident.lock().len()
    }

    /// Charges the faults of touching `(offset, len)` through the
    /// mapping.
    ///
    /// Every non-resident page in the range triggers a synchronous
    /// fault; each fault loads a whole readahead window (made
    /// resident), and the windows are charged as one synchronous batch
    /// — the faulting thread blocks for each device round-trip.
    /// Reading the bytes is then free (it is memory). The walk stops at
    /// the object's last page: a read past it fails at the storage.
    pub fn fault(&self, offset: u64, len: usize) {
        let ps = PAGE_SIZE as u64;
        let size = self.storage.len();
        let file_pages = size.div_ceil(ps);
        let last_page = (offset + len.max(1) as u64 - 1) / ps;
        let mut resident = self.resident.lock();
        let mut faults: Vec<OpSpec> = Vec::new();
        let mut page = offset / ps;
        while page <= last_page && page < file_pages {
            if resident.contains(&page) {
                page += 1;
                continue;
            }
            // Fault: bring in the readahead window starting here.
            let window_end = (page + self.readahead_pages as u64).min(file_pages);
            let brought = (page..window_end).filter(|&p| resident.insert(p)).count() as u64;
            let window_len = (size - page * ps).min(brought * ps) as usize;
            faults.push((page * ps, window_len));
            page = window_end;
        }
        if !faults.is_empty() {
            self.storage.charge_batch(&faults, AccessMode::Sync);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::pipeline::{read_all, BackendKind, PipelineConfig};
    use crate::storage::MemStorage;
    use std::time::Duration;

    fn charged(n: usize) -> (MmapSim, MemStorage) {
        let mem = MemStorage::with_model(vec![0u8; n], CostModel::lustre_pfs());
        (MmapSim::new(Arc::new(mem.clone())), mem)
    }

    /// Reads `ops` from `n` patterned bytes on the simulated PFS
    /// through the pipeline: the bytes read, the bytes stored, and the
    /// modeled time.
    fn read_through(
        backend: BackendKind,
        n: usize,
        ops: &[OpSpec],
    ) -> (Vec<u8>, Vec<u8>, Duration) {
        let data: Vec<u8> = (0..n).map(|i| (i % 247) as u8).collect();
        let mem = MemStorage::with_model(data.clone(), CostModel::lustre_pfs());
        let cfg = PipelineConfig {
            backend,
            ..PipelineConfig::default()
        };
        let got = read_all(Arc::new(mem.clone()), ops, cfg).unwrap();
        (got, data, mem.elapsed())
    }

    #[test]
    fn reads_return_correct_bytes() {
        let (got, data, _) = read_through(BackendKind::Mmap, 1 << 16, &[(10_000, 100)]);
        assert_eq!(got, &data[10_000..10_100]);
    }

    #[test]
    fn first_touch_faults_subsequent_touch_free() {
        let (map, mem) = charged(1 << 16);
        map.fault(0, 64);
        let after_first = mem.elapsed();
        assert!(after_first > Duration::ZERO);
        map.fault(8, 64); // same page
        assert_eq!(mem.elapsed(), after_first);
    }

    #[test]
    fn range_spanning_pages_faults_each_page() {
        let (map, _) = charged(1 << 16);
        let map = MmapSim {
            readahead_pages: 1,
            ..map
        };
        map.fault(PAGE_SIZE as u64 - 10, 20); // spans 2 pages
        assert_eq!(map.resident_pages(), 2);
    }

    #[test]
    fn readahead_window_becomes_resident_in_one_fault() {
        let (map, mem) = charged(1 << 20);
        let map = MmapSim {
            readahead_pages: 16,
            ..map
        };
        map.fault(0, 8);
        assert_eq!(map.resident_pages(), 16);
        // Touching anywhere inside the window is free.
        let t = mem.elapsed();
        map.fault(15 * PAGE_SIZE as u64, 100);
        assert_eq!(mem.elapsed(), t);
    }

    #[test]
    fn small_read_still_faults_whole_window_cost() {
        // 8 bytes wanted, but the charge covers the readahead window.
        let (map, mem) = charged(1 << 16);
        let map = MmapSim {
            readahead_pages: 4,
            ..map
        };
        map.fault(0, 8);
        let expected = CostModel::lustre_pfs().sync_batch_time(&[(0, 4 * PAGE_SIZE)]);
        assert_eq!(mem.elapsed(), expected);
    }

    #[test]
    fn mmap_slower_than_uring_for_scattered_reads() {
        // The Figure 9 property, as a unit test.
        let ops: Vec<OpSpec> = (0..64).map(|i| (i * 10 * PAGE_SIZE as u64, 4096)).collect();
        let elapsed = |backend| read_through(backend, 1 << 23, &ops).2;
        let (t_mmap, t_uring) = (elapsed(BackendKind::Mmap), elapsed(BackendKind::Uring));
        assert!(
            t_mmap > t_uring * 3,
            "mmap {t_mmap:?} should be >3x uring {t_uring:?}"
        );
    }

    #[test]
    fn tail_page_shorter_than_page_size() {
        let (map, mem) = charged(PAGE_SIZE + 100);
        map.fault(PAGE_SIZE as u64, 100);
        let expected = CostModel::lustre_pfs().sync_batch_time(&[(PAGE_SIZE as u64, 100)]);
        assert_eq!(mem.elapsed(), expected, "only the bytes the object has");
        let (got, data, _) = read_through(
            BackendKind::Mmap,
            PAGE_SIZE + 100,
            &[(PAGE_SIZE as u64, 100)],
        );
        assert_eq!(got, &data[PAGE_SIZE..]);
    }

    #[test]
    fn scattered_order_preserved() {
        let ops = [(30_000u64, 16usize), (0, 16), (60_000, 16)];
        let (got, data, _) = read_through(BackendKind::Mmap, 1 << 16, &ops);
        for (buf, &(off, len)) in got.chunks(16).zip(&ops) {
            assert_eq!(buf, &data[off as usize..off as usize + len]);
        }
    }

    #[test]
    fn the_fault_walk_stops_at_the_end_of_the_object() {
        // The range ends 104 bytes past the end: only page 0 exists.
        let (map, mem) = charged(PAGE_SIZE);
        map.fault(4000, 200);
        assert_eq!(map.resident_pages(), 1);
        let expected = CostModel::lustre_pfs().sync_batch_time(&[(0, PAGE_SIZE)]);
        assert_eq!(mem.elapsed(), expected);
        // Entirely past the end: nothing to fault.
        map.fault(2 * PAGE_SIZE as u64, 10);
        assert_eq!(mem.elapsed(), expected);
    }
}
