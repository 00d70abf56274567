//! Input generator: checkpoints, divergent pairs and version histories,
//! all derived from one seed, with the ground truth kept alongside.
//!
//! The generator knows the paper's comparison rule (`|a − b| > ε`, taken
//! in f64) and its ε-grid (`floor(x / ε)`), but calls nothing from the
//! repository: the program under test sees only the files and frames
//! built from these values.

/// The error bound every workload runs under.
pub const EPS: f64 = 1e-5;
/// Chunk size in bytes (Merkle leaf and store chunk).
pub const CHUNK_BYTES: usize = 4096;
/// `f32` values per chunk.
pub const CHUNK_VALUES: usize = CHUNK_BYTES / 4;
/// Region names of a generated checkpoint (VELOC-style named regions).
pub const REGIONS: [&str; 8] = ["x", "y", "z", "vx", "vy", "vz", "phi", "rho"];

/// Values pushed beyond ε in every diverged chunk.
const DIVERGED_VALUES_PER_CHUNK: usize = 32;
/// Values given sub-ε, grid-crossing noise in every noise chunk.
const NOISE_VALUES_PER_CHUNK: usize = 4;

/// SplitMix64: small, fast, and good enough to decorrelate chunks.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: bias is < n / 2^64, irrelevant at these sizes.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 24 bits of mantissa.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// A stream independent of this one, keyed by `salt`.
    pub fn fork(&self, salt: u64) -> SplitMix64 {
        let mut child = SplitMix64(self.0 ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93));
        child.next_u64();
        child
    }
}

/// A value in `[0.5, 1.5)`: f32 spacing there is ≈ 1.2e-7, about ε/84,
/// so sub-ε noise is representable and super-ε steps are unambiguous.
fn fresh_value(rng: &mut SplitMix64) -> f32 {
    0.5 + rng.unit_f32()
}

/// `values` fresh values; `values` must be a multiple of
/// `REGIONS.len() * CHUNK_VALUES` so regions stay chunk-aligned.
pub fn base_values(rng: &mut SplitMix64, values: usize) -> Vec<f32> {
    assert!(
        values > 0 && values.is_multiple_of(REGIONS.len() * CHUNK_VALUES),
        "checkpoint size must split into {} chunk-aligned regions",
        REGIONS.len()
    );
    (0..values).map(|_| fresh_value(rng)).collect()
}

/// Splits a payload into the named regions of a checkpoint.
pub fn regions(values: &[f32]) -> Vec<(&'static str, &[f32])> {
    let per = values.len() / REGIONS.len();
    REGIONS
        .iter()
        .enumerate()
        .map(|(i, name)| (*name, &values[i * per..(i + 1) * per]))
        .collect()
}

/// How run 2 departs from run 1.
#[derive(Debug, Clone, Copy)]
pub struct Divergence {
    /// Share of chunks holding values that differ beyond ε.
    pub diverged_share: f64,
    /// Diverged chunks come in aligned runs of this many chunks.
    pub run_chunks: usize,
    /// Share of chunks holding only sub-ε noise that crosses an ε-grid
    /// line: a hash mismatch with no real difference.
    pub noise_share: f64,
}

/// An early-iteration pair: ~1 % diverged in runs of 8, ~5 % noise.
pub const SPARSE: Divergence = Divergence {
    diverged_share: 0.01,
    run_chunks: 8,
    noise_share: 0.05,
};

/// The paper's Fig. 7 regime: ~60 % diverged in runs of 64, ~5 % noise.
pub const DENSE: Divergence = Divergence {
    diverged_share: 0.60,
    run_chunks: 64,
    noise_share: 0.05,
};

/// What the generator knows about a pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Truth {
    /// Values with `|a − b| > ε`, differences taken in f64.
    pub diff_count: u64,
    /// Chunks holding at least one such value, ascending.
    pub different_chunks: Vec<u32>,
    /// Chunks carrying only sub-ε noise, ascending.
    pub noise_chunks: Vec<u32>,
}

/// Picks `take` distinct slots out of `slots` (partial Fisher–Yates),
/// returned ascending.
fn pick_slots(rng: &mut SplitMix64, slots: usize, take: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..slots).collect();
    let take = take.min(slots);
    for i in 0..take {
        let j = i + rng.below((slots - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(take);
    all.sort_unstable();
    all
}

/// Counts `|a − b| > ε` over one chunk, in f64 like the paper's direct
/// comparison.
fn chunk_diffs(a: &[f32], b: &[f32]) -> u64 {
    a.iter()
        .zip(b)
        .filter(|(x, y)| (f64::from(**x) - f64::from(**y)).abs() > EPS)
        .count() as u64
}

/// Derives run 2 from run 1 under `div` and records the truth.
pub fn diverge(rng: &mut SplitMix64, a: &[f32], div: Divergence) -> (Vec<f32>, Truth) {
    let chunks = a.len() / CHUNK_VALUES;
    let mut b = a.to_vec();

    // Diverged chunks: aligned runs, an exact count of them.
    let run_slots = chunks / div.run_chunks;
    let runs = ((chunks as f64 * div.diverged_share) / div.run_chunks as f64).round() as usize;
    let mut state = vec![0u8; chunks]; // 0 clean, 1 diverged, 2 noise
    for slot in pick_slots(rng, run_slots, runs.max(1)) {
        state[slot * div.run_chunks..(slot + 1) * div.run_chunks].fill(1);
    }
    // Noise chunks: an exact count drawn from the clean remainder.
    let clean: Vec<usize> = (0..chunks).filter(|&c| state[c] == 0).collect();
    let noisy = (chunks as f64 * div.noise_share).round() as usize;
    for k in pick_slots(rng, clean.len(), noisy) {
        state[clean[k]] = 2;
    }

    let mut truth = Truth {
        diff_count: 0,
        different_chunks: Vec::new(),
        noise_chunks: Vec::new(),
    };
    for (c, &s) in state.iter().enumerate() {
        let lo = c * CHUNK_VALUES;
        let (ca, cb) = (&a[lo..lo + CHUNK_VALUES], &mut b[lo..lo + CHUNK_VALUES]);
        match s {
            1 => {
                for _ in 0..DIVERGED_VALUES_PER_CHUNK {
                    let i = rng.below(CHUNK_VALUES as u64) as usize;
                    // A step of 2ε..100ε, either sign: never borderline.
                    let step = (2.0 + 98.0 * f64::from(rng.unit_f32())) * EPS;
                    let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
                    cb[i] = (f64::from(ca[i]) + sign * step) as f32;
                }
            }
            2 => {
                for _ in 0..NOISE_VALUES_PER_CHUNK {
                    let i = rng.below(CHUNK_VALUES as u64) as usize;
                    // Land a quarter cell beyond the nearer grid line:
                    // the code changes, |a − b| stays under 0.75 ε.
                    let scaled = f64::from(ca[i]) / EPS;
                    let cell = scaled.floor();
                    let target = if scaled - cell < 0.5 {
                        cell - 0.25
                    } else {
                        cell + 1.25
                    };
                    cb[i] = (target * EPS) as f32;
                }
            }
            _ => continue,
        }
        let diffs = chunk_diffs(ca, cb);
        truth.diff_count += diffs;
        if diffs > 0 {
            truth.different_chunks.push(c as u32);
        } else {
            truth.noise_chunks.push(c as u32);
        }
    }
    (b, truth)
}

/// The next version of a checkpoint: `share` of its chunks, in aligned
/// runs of `run_chunks`, rewritten with fresh values. Returns the new
/// payload and the number of chunks rewritten.
pub fn churn(
    rng: &mut SplitMix64,
    prev: &[f32],
    share: f64,
    run_chunks: usize,
) -> (Vec<f32>, usize) {
    let chunks = prev.len() / CHUNK_VALUES;
    let runs = (((chunks as f64 * share) / run_chunks as f64).round() as usize).max(1);
    let mut next = prev.to_vec();
    let slots = pick_slots(rng, chunks / run_chunks, runs);
    for &slot in &slots {
        let lo = slot * run_chunks * CHUNK_VALUES;
        for v in &mut next[lo..lo + run_chunks * CHUNK_VALUES] {
            *v = fresh_value(rng);
        }
    }
    (next, slots.len() * run_chunks)
}

/// Little-endian bytes of a payload.
pub fn le_bytes(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALUES: usize = 2 << 20; // 8 MiB, 2048 chunks

    fn pair(seed: u64, div: Divergence) -> (Vec<f32>, Vec<f32>, Truth) {
        let mut rng = SplitMix64::new(seed);
        let a = base_values(&mut rng, VALUES);
        let (b, truth) = diverge(&mut rng, &a, div);
        (a, b, truth)
    }

    #[test]
    fn same_seed_gives_identical_bytes() {
        let (a1, b1, t1) = pair(7, SPARSE);
        let (a2, b2, t2) = pair(7, SPARSE);
        assert_eq!(le_bytes(&a1), le_bytes(&a2));
        assert_eq!(le_bytes(&b1), le_bytes(&b2));
        assert_eq!(t1, t2);
        let (a3, _, _) = pair(8, SPARSE);
        assert_ne!(le_bytes(&a1), le_bytes(&a3));
    }

    #[test]
    fn sparse_fractions_land_in_band() {
        let (a, b, truth) = pair(11, SPARSE);
        let chunks = (VALUES / CHUNK_VALUES) as f64;
        let different = truth.different_chunks.len() as f64 / chunks;
        let noise = truth.noise_chunks.len() as f64 / chunks;
        assert!((0.005..=0.02).contains(&different), "different {different}");
        assert!((0.04..=0.06).contains(&noise), "noise {noise}");
        // The truth is the plain f64 rule over the whole payload.
        assert_eq!(truth.diff_count, chunk_diffs(&a, &b));
        assert!(truth.diff_count > 0);
    }

    #[test]
    fn dense_fractions_land_in_band() {
        let (_, _, truth) = pair(13, DENSE);
        let chunks = (VALUES / CHUNK_VALUES) as f64;
        let different = truth.different_chunks.len() as f64 / chunks;
        assert!((0.55..=0.65).contains(&different), "different {different}");
    }

    #[test]
    fn diverged_chunks_come_in_runs() {
        let (_, _, truth) = pair(17, SPARSE);
        for run in truth.different_chunks.chunks(SPARSE.run_chunks) {
            assert_eq!(run[0] as usize % SPARSE.run_chunks, 0);
            assert_eq!(
                (run[run.len() - 1] - run[0]) as usize,
                SPARSE.run_chunks - 1
            );
        }
    }

    #[test]
    fn noise_crosses_the_grid_but_not_the_bound() {
        let (a, b, truth) = pair(19, SPARSE);
        let cell = |x: f32| (f64::from(x) / EPS).floor() as i64;
        for &c in &truth.noise_chunks {
            let lo = c as usize * CHUNK_VALUES;
            let (ca, cb) = (&a[lo..lo + CHUNK_VALUES], &b[lo..lo + CHUNK_VALUES]);
            assert_eq!(chunk_diffs(ca, cb), 0);
            assert!(ca.iter().zip(cb).any(|(x, y)| cell(*x) != cell(*y)));
        }
    }

    #[test]
    fn churn_rewrites_the_stated_share() {
        let mut rng = SplitMix64::new(23);
        let v1 = base_values(&mut rng, VALUES);
        let (v2, rewritten) = churn(&mut rng, &v1, 0.05, 16);
        let chunks = VALUES / CHUNK_VALUES;
        let changed = (0..chunks)
            .filter(|&c| {
                v1[c * CHUNK_VALUES..(c + 1) * CHUNK_VALUES]
                    != v2[c * CHUNK_VALUES..(c + 1) * CHUNK_VALUES]
            })
            .count();
        assert_eq!(changed, rewritten);
        let share = changed as f64 / chunks as f64;
        assert!((0.04..=0.06).contains(&share), "churn {share}");
    }

    #[test]
    fn regions_cover_the_payload_in_order() {
        let mut rng = SplitMix64::new(29);
        let v = base_values(&mut rng, REGIONS.len() * CHUNK_VALUES * 2);
        let parts = regions(&v);
        assert_eq!(parts.len(), REGIONS.len());
        let total: usize = parts.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(total, v.len());
        assert_eq!(parts[0].1[0], v[0]);
    }
}
