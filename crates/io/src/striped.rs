//! Lustre-style file striping across object storage targets (OSTs).
//!
//! A Lustre file is striped round-robin over several OSTs: stripe `k`
//! lives on OST `k mod n`, at object offset `(k / n) · stripe_size`.
//! Reads that span stripes are served by multiple OSTs *in parallel*,
//! which is where the PFS's aggregate bandwidth comes from — and why
//! the paper's evaluation platform can feed many comparison processes
//! at once.
//!
//! [`StripedStorage`] models exactly that on top of the in-memory
//! byte store: every charged batch is split into per-OST fragment
//! lists (translated to *object* offsets, so consecutive stripes on
//! one OST stay contiguous), each OST prices its fragments with its
//! own [`CostModel`], and the batch completes when the slowest OST
//! does. Data integrity is unaffected — only the virtual clock sees
//! the striping.

use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Duration;

use crate::clock::SimClock;
use crate::cost::{CostModel, OpSpec};
use crate::storage::{AccessMode, Storage};
use crate::{IoError, IoResult};

/// A striped storage object.
///
/// Clones share bytes and clock.
#[derive(Debug, Clone)]
pub struct StripedStorage {
    bytes: Arc<RwLock<Vec<u8>>>,
    model: CostModel,
    stripe_size: u64,
    ost_count: usize,
    clock: SimClock,
}

impl StripedStorage {
    /// Wraps `bytes`, striped `stripe_size`-wise over `ost_count`
    /// targets that each behave like `model`.
    ///
    /// # Panics
    ///
    /// If `stripe_size` is zero or `ost_count` is zero.
    #[must_use]
    pub fn new(bytes: Vec<u8>, model: CostModel, stripe_size: u64, ost_count: usize) -> Self {
        assert!(stripe_size > 0, "stripe size must be non-zero");
        assert!(ost_count > 0, "need at least one OST");
        StripedStorage {
            bytes: Arc::new(RwLock::new(bytes)),
            model,
            stripe_size,
            ost_count,
            clock: SimClock::new(),
        }
    }

    /// As [`StripedStorage::new`] but charging an existing clock.
    #[must_use]
    pub fn with_clock(
        bytes: Vec<u8>,
        model: CostModel,
        stripe_size: u64,
        ost_count: usize,
        clock: SimClock,
    ) -> Self {
        let mut s = Self::new(bytes, model, stripe_size, ost_count);
        s.clock = clock;
        s
    }

    /// The clock this storage charges.
    #[must_use]
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Number of OSTs the file is striped over.
    #[must_use]
    pub fn ost_count(&self) -> usize {
        self.ost_count
    }

    /// Splits one file-offset op into per-OST fragments at *object*
    /// offsets.
    fn fragments(&self, offset: u64, len: usize) -> Vec<(usize, OpSpec)> {
        let mut out = Vec::new();
        let mut pos = offset;
        let end = offset + len as u64;
        while pos < end {
            let stripe = pos / self.stripe_size;
            let within = pos % self.stripe_size;
            let take = (self.stripe_size - within).min(end - pos);
            let ost = (stripe % self.ost_count as u64) as usize;
            let object_offset = (stripe / self.ost_count as u64) * self.stripe_size + within;
            out.push((ost, (object_offset, take as usize)));
            pos += take;
        }
        out
    }
}

impl Storage for StripedStorage {
    fn len(&self) -> u64 {
        self.bytes.read().len() as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> IoResult<()> {
        let bytes = self.bytes.read();
        let end = offset as usize + buf.len();
        if end > bytes.len() {
            return Err(IoError::OutOfBounds {
                offset,
                len: buf.len(),
                size: bytes.len() as u64,
            });
        }
        buf.copy_from_slice(&bytes[offset as usize..end]);
        Ok(())
    }

    fn charge_batch(&self, ops: &[OpSpec], mode: AccessMode) {
        // Split every op into per-OST fragment lists.
        let mut per_ost: Vec<Vec<OpSpec>> = vec![Vec::new(); self.ost_count];
        for &(offset, len) in ops {
            for (ost, frag) in self.fragments(offset, len) {
                per_ost[ost].push(frag);
            }
        }
        // Each OST serves its fragments concurrently with the others;
        // the batch finishes when the slowest OST does.
        let slowest = per_ost
            .iter()
            .filter(|frags| !frags.is_empty())
            .map(|frags| match mode {
                AccessMode::Sync => self.model.sync_batch_time(frags),
                AccessMode::Async { depth } => self.model.async_batch_time(frags, depth),
            })
            .max()
            .unwrap_or(Duration::ZERO);
        self.clock.advance(slowest);
    }

    fn elapsed(&self) -> Duration {
        self.clock.now()
    }

    fn sim_clock(&self) -> Option<SimClock> {
        Some(self.clock.clone())
    }

    fn models_cost(&self) -> bool {
        self.model != CostModel::free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{read_all, PipelineConfig};
    use crate::storage::MemStorage;

    fn model() -> CostModel {
        CostModel::lustre_pfs()
    }

    #[test]
    fn fragments_route_round_robin_to_object_offsets() {
        let s = StripedStorage::new(vec![0u8; 1 << 20], model(), 1024, 4);
        // One op spanning stripes 0..4 exactly.
        let frags = s.fragments(0, 4096);
        assert_eq!(
            frags,
            vec![
                (0, (0, 1024)),
                (1, (0, 1024)),
                (2, (0, 1024)),
                (3, (0, 1024)),
            ]
        );
        // Stripe 4 wraps to OST 0 at object offset 1024.
        let frags = s.fragments(4096, 100);
        assert_eq!(frags, vec![(0, (1024, 100))]);
        // Misaligned op splits mid-stripe.
        let frags = s.fragments(1000, 100);
        assert_eq!(frags, vec![(0, (1000, 24)), (1, (0, 76))]);
    }

    #[test]
    fn data_round_trips_regardless_of_striping() {
        let data: Vec<u8> = (0..1 << 16).map(|i| (i % 251) as u8).collect();
        let s = StripedStorage::new(data.clone(), model(), 4096, 4);
        let mut buf = vec![0u8; 1000];
        s.read_at(12_345, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[12_345..13_345]);
        let mut big = vec![0u8; 100];
        assert!(s.read_at((1 << 16) - 50, &mut big).is_err());
    }

    #[test]
    fn striping_multiplies_sequential_bandwidth() {
        let read_time = |osts: usize| {
            let s = StripedStorage::new(vec![0u8; 64 << 20], model(), 1 << 20, osts);
            s.charge_batch(&[(0, 64 << 20)], AccessMode::Async { depth: 64 });
            s.elapsed()
        };
        let one = read_time(1);
        let four = read_time(4);
        let ratio = one.as_secs_f64() / four.as_secs_f64();
        assert!(
            (3.0..=4.5).contains(&ratio),
            "4 OSTs should serve ~4x faster, got {ratio:.2}x"
        );
    }

    #[test]
    fn consecutive_stripes_on_one_ost_stay_contiguous() {
        // Reading the whole file: each OST sees ONE contiguous object
        // region, so it pays a single seek, not one per stripe.
        let s = StripedStorage::new(vec![0u8; 8 << 20], model(), 1 << 20, 2);
        let frags = s.fragments(0, 8 << 20);
        let ost0: Vec<OpSpec> = frags
            .iter()
            .filter(|(o, _)| *o == 0)
            .map(|(_, f)| *f)
            .collect();
        assert_eq!(CostModel::count_seeks(&ost0), 1);
    }

    #[test]
    fn single_small_read_touches_one_ost() {
        let s = StripedStorage::new(vec![0u8; 1 << 20], model(), 64 << 10, 8);
        s.charge_batch(&[(0, 4096)], AccessMode::Sync);
        // Cost equals one plain op on one OST.
        let expected = model().sync_batch_time(&[(0, 4096)]);
        assert_eq!(s.elapsed(), expected);
    }

    #[test]
    fn matches_unstriped_storage_with_one_ost() {
        let ops: Vec<OpSpec> = (0..32).map(|i| (i * 10_000, 2048)).collect();
        let striped = StripedStorage::new(vec![0u8; 1 << 20], model(), 1 << 30, 1);
        striped.charge_batch(&ops, AccessMode::Async { depth: 16 });
        let plain = MemStorage::with_model(vec![0u8; 1 << 20], model());
        plain.charge_batch(&ops, AccessMode::Async { depth: 16 });
        assert_eq!(striped.elapsed(), plain.elapsed());
    }

    #[test]
    fn works_under_the_ring_engine() {
        let data: Vec<u8> = (0..1 << 18).map(|i| (i % 253) as u8).collect();
        let s = StripedStorage::new(data.clone(), model(), 16 << 10, 4);
        let clock = s.clock();
        let ops: Vec<OpSpec> = (0..16).map(|i| (i * 16_000, 1024)).collect();
        let got = read_all(Arc::new(s), &ops, PipelineConfig::default()).unwrap();
        for (buf, &(off, len)) in got.chunks(1024).zip(&ops) {
            assert_eq!(buf, &data[off as usize..off as usize + len]);
        }
        assert!(clock.now() > Duration::ZERO);
    }

    #[test]
    fn scattered_ops_spread_over_osts_run_in_parallel() {
        // 8 scattered reads, each landing on a different OST: the
        // batch costs about one op, not eight.
        let stripe = 1u64 << 20;
        let s = StripedStorage::new(vec![0u8; 16 << 20], model(), stripe, 8);
        let ops: Vec<OpSpec> = (0..8).map(|i| (i as u64 * stripe, 4096)).collect();
        s.charge_batch(&ops, AccessMode::Sync);
        let one_op = model().sync_batch_time(&[(0, 4096)]);
        assert_eq!(s.elapsed(), one_op);
    }
}
