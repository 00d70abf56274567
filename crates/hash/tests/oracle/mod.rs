//! The leaf kernel as it was before tiling, kept verbatim as the
//! reference the tiled kernel is checked against: libm `floor` behind
//! two branches per value, codes pushed as bytes, and one fresh
//! Murmur3F hasher per 16-byte block.

const CODE_NAN: i64 = i64::MAX;
const CODE_POS_INF: i64 = i64::MAX - 1;
const CODE_NEG_INF: i64 = i64::MIN + 1;

const C1: u64 = 0x87c3_7b91_1142_53d5;
const C2: u64 = 0x4cf5_ad43_2745_937f;

pub struct Oracle {
    inv_bound: f64,
    block_bytes: usize,
}

impl Oracle {
    pub fn new(bound: f64, block_bytes: usize) -> Self {
        Oracle {
            inv_bound: 1.0 / bound,
            block_bytes: block_bytes.max(8),
        }
    }

    pub fn quantize(&self, x: f32) -> i64 {
        if x.is_nan() {
            return CODE_NAN;
        }
        if x.is_infinite() {
            return if x > 0.0 { CODE_POS_INF } else { CODE_NEG_INF };
        }
        let scaled = f64::from(x) * self.inv_bound;
        if scaled >= (CODE_POS_INF - 1) as f64 {
            CODE_POS_INF - 1
        } else if scaled <= (CODE_NEG_INF + 1) as f64 {
            CODE_NEG_INF + 1
        } else {
            scaled.floor() as i64
        }
    }

    pub fn quantize_to_bytes(&self, data: &[f32], out: &mut Vec<u8>) {
        out.clear();
        out.reserve(data.len() * 8);
        for &x in data {
            out.extend_from_slice(&self.quantize(x).to_le_bytes());
        }
    }

    pub fn hash_quantized_bytes(&self, bytes: &[u8]) -> [u64; 2] {
        let mut digest = [0, 0];
        if bytes.is_empty() {
            return murmur(digest, &[0x45]);
        }
        for block in bytes.chunks(self.block_bytes) {
            digest = murmur(digest, block);
        }
        digest
    }

    pub fn hash_chunk(&self, chunk: &[f32]) -> [u64; 2] {
        let mut scratch = Vec::new();
        self.quantize_to_bytes(chunk, &mut scratch);
        self.hash_quantized_bytes(&scratch)
    }

    pub fn hash_leaves(&self, data: &[f32], chunk_len: usize) -> Vec<[u64; 2]> {
        data.chunks(chunk_len).map(|c| self.hash_chunk(c)).collect()
    }
}

fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

/// MurmurHash3 x64 128 seeded with both lanes of a previous digest.
pub fn murmur(seed: [u64; 2], data: &[u8]) -> [u64; 2] {
    let [mut h1, mut h2] = seed;
    let n_blocks = data.len() / 16;

    for block in 0..n_blocks {
        let off = block * 16;
        let k1 = u64::from_le_bytes(data[off..off + 8].try_into().expect("8 bytes"));
        let k2 = u64::from_le_bytes(data[off + 8..off + 16].try_into().expect("8 bytes"));

        let k1 = k1.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2);
        h1 ^= k1;
        h1 = h1
            .rotate_left(27)
            .wrapping_add(h2)
            .wrapping_mul(5)
            .wrapping_add(0x52dc_e729);

        let k2 = k2.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1);
        h2 ^= k2;
        h2 = h2
            .rotate_left(31)
            .wrapping_add(h1)
            .wrapping_mul(5)
            .wrapping_add(0x3849_5ab5);
    }

    let tail = &data[n_blocks * 16..];
    let mut k1: u64 = 0;
    let mut k2: u64 = 0;
    for (i, &b) in tail.iter().enumerate() {
        if i < 8 {
            k1 |= u64::from(b) << (8 * i);
        } else {
            k2 |= u64::from(b) << (8 * (i - 8));
        }
    }
    if !tail.is_empty() {
        if tail.len() > 8 {
            k2 = k2.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1);
            h2 ^= k2;
        }
        k1 = k1.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2);
        h1 ^= k1;
    }

    h1 ^= data.len() as u64;
    h2 ^= data.len() as u64;
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);

    [h1, h2]
}

/// The interior-node operation, through a 32-byte buffer.
pub fn combine(left: [u64; 2], right: [u64; 2]) -> [u64; 2] {
    let mut buf = [0u8; 32];
    for (i, w) in left.iter().chain(&right).enumerate() {
        buf[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
    }
    murmur([0, 0], &buf)
}
