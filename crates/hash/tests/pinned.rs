//! Pinned digests: literal leaf digests and Merkle roots.
//!
//! Every `.tree` file and every store manifest's `meta` blob holds
//! these values, so a leaf kernel that drifts — even consistently on
//! both sides of a comparison, which every other suite would accept —
//! silently stops matching everything already on disk. The literals
//! below were generated once, at the commit before the tiled leaf
//! kernel, and are never regenerated: a failure here is a format break.
//!
//! On a mismatch the panic message prints the whole actual table, so a
//! deliberate format change (which would also need a format version)
//! is one copy away.

use reprocmp_device::Device;
use reprocmp_hash::{ChunkHasher, Digest128, Quantizer};
use reprocmp_merkle::MerkleTree;

const EPS: [f64; 3] = [1e-7, 1e-5, 1e-3];

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The next f32 toward +∞.
fn next_up(x: f32) -> f32 {
    let bits = x.to_bits();
    f32::from_bits(if x == 0.0 {
        1
    } else if bits >> 31 == 0 {
        bits + 1
    } else {
        bits - 1
    })
}

/// The next f32 toward −∞.
fn next_down(x: f32) -> f32 {
    -next_up(-x)
}

/// The adversarial single values at grid step `eps`: every non-finite
/// class, both zeros, subnormals, the extremes, and values on and one
/// ulp either side of a positive and a negative grid line.
fn specials(eps: f64) -> [(&'static str, f32); 17] {
    let on = (12_345.0 * eps) as f32;
    let neg = (-777.0 * eps) as f32;
    [
        ("nan", f32::NAN),
        ("nan_payload", f32::from_bits(0x7fc0_0001)),
        ("neg_nan", f32::from_bits(0xffc0_0000)),
        ("pos_inf", f32::INFINITY),
        ("neg_inf", f32::NEG_INFINITY),
        ("pos_zero", 0.0),
        ("neg_zero", -0.0),
        ("min_subnormal", f32::from_bits(1)),
        ("neg_max_subnormal", -f32::from_bits(0x007f_ffff)),
        ("max", f32::MAX),
        ("min", f32::MIN),
        ("on_grid", on),
        ("below_grid", next_down(on)),
        ("above_grid", next_up(on)),
        ("neg_on_grid", neg),
        ("neg_below_grid", next_down(neg)),
        ("neg_above_grid", next_up(neg)),
    ]
}

/// `n` values cycling through four classes: raw random bit patterns,
/// the specials, grid lines ±1 ulp, and uniform values in [−10, 10).
fn mixed(eps: f64, n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64(seed);
    let sp = specials(eps);
    (0..n)
        .map(|i| {
            let r = rng.next();
            match i % 4 {
                0 => f32::from_bits(r as u32),
                1 => sp[(r % sp.len() as u64) as usize].1,
                2 => {
                    let k = ((r >> 8) % (1 << 20)) as i64 - (1 << 19);
                    let v = (k as f64 * eps) as f32;
                    match r % 3 {
                        0 => next_down(v),
                        1 => v,
                        _ => next_up(v),
                    }
                }
                _ => ((r >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0) as f32,
            }
        })
        .collect()
}

fn hasher(eps: f64) -> ChunkHasher {
    ChunkHasher::new(Quantizer::new(eps).unwrap())
}

/// Panics with the full actual table unless it equals `expected`.
fn check(table: &str, actual: &[(String, Digest128)], expected: &[&str]) {
    let same = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|((_, d), e)| d.to_string() == *e);
    if !same {
        let rendered: String = actual
            .iter()
            .map(|(label, d)| format!("    \"{d}\", // {label}\n"))
            .collect();
        panic!("{table} drifted from its pinned digests; actual:\n{rendered}");
    }
}

#[test]
fn singleton_chunks_of_every_special_value() {
    let mut actual = Vec::new();
    for eps in EPS {
        let h = hasher(eps);
        for (name, v) in specials(eps) {
            actual.push((format!("{eps:e} {name}"), h.hash_chunk(&[v])));
        }
    }
    check("SINGLETONS", &actual, SINGLETONS);
}

#[test]
fn chunk_lengths_one_two_three_and_a_full_page() {
    let mut actual = Vec::new();
    for eps in EPS {
        let h = hasher(eps);
        let data = mixed(eps, 1024, 0xc0ff_ee);
        for len in [1, 2, 3, 1023, 1024] {
            actual.push((format!("{eps:e} len {len}"), h.hash_chunk(&data[..len])));
        }
    }
    check("PREFIXES", &actual, PREFIXES);
}

#[test]
fn five_page_chunks_and_a_short_tail() {
    let mut actual = Vec::new();
    for eps in EPS {
        let h = hasher(eps);
        let data = mixed(eps, 5 * 1024 + 3, 0xbeef);
        for (i, leaf) in h.hash_leaves(&data, 1024).into_iter().enumerate() {
            actual.push((format!("{eps:e} leaf {i}"), leaf));
        }
    }
    check("PAGES", &actual, PAGES);
}

#[test]
fn merkle_roots_of_a_4097_leaf_payload_on_serial_and_threads() {
    for dev in [Device::host_serial(), Device::host_parallel(2)] {
        let mut actual = Vec::new();
        for eps in EPS {
            let data = mixed(eps, 4096 * 16 + 7, 0x5eed);
            let tree = MerkleTree::build_from_f32(&data, 64, &hasher(eps), &dev);
            assert_eq!(tree.leaf_count(), 4097);
            actual.push((format!("{eps:e} root"), tree.root()));
            for i in [0, 2048, 4096] {
                actual.push((format!("{eps:e} leaf {i}"), tree.leaf(i)));
            }
        }
        check(dev.name(), &actual, TREES);
    }
}

const SINGLETONS: &[&str] = &[
    "7dfb92c0a9003d9e6c76ebcbdad669d4", // 1e-7 nan
    "7dfb92c0a9003d9e6c76ebcbdad669d4", // 1e-7 nan_payload
    "7dfb92c0a9003d9e6c76ebcbdad669d4", // 1e-7 neg_nan
    "01413fbf30e42713d82b1723088b2699", // 1e-7 pos_inf
    "0226a7cd7dd44757715f85d68ba5aaef", // 1e-7 neg_inf
    "f2557dfcc4e8fe5228df63b7cc57c3cb", // 1e-7 pos_zero
    "f2557dfcc4e8fe5228df63b7cc57c3cb", // 1e-7 neg_zero
    "f2557dfcc4e8fe5228df63b7cc57c3cb", // 1e-7 min_subnormal
    "692112c96b4a46afa0e4b27a1abaed73", // 1e-7 neg_max_subnormal
    "8da7cb1e86e4f458653bb85320499468", // 1e-7 max
    "a2b77374dab8be3d6b3a0da998199f34", // 1e-7 min
    "9552eb3496fea6562e25a6c61f87fc88", // 1e-7 on_grid
    "9552eb3496fea6562e25a6c61f87fc88", // 1e-7 below_grid
    "22c2162fb2d48d2e3cd2dbd3ee832997", // 1e-7 above_grid
    "794287c42a6f3b355b23e9c0bdc8e0e6", // 1e-7 neg_on_grid
    "794287c42a6f3b355b23e9c0bdc8e0e6", // 1e-7 neg_below_grid
    "ecbdd005450e063cab469664207f59b5", // 1e-7 neg_above_grid
    "7dfb92c0a9003d9e6c76ebcbdad669d4", // 1e-5 nan
    "7dfb92c0a9003d9e6c76ebcbdad669d4", // 1e-5 nan_payload
    "7dfb92c0a9003d9e6c76ebcbdad669d4", // 1e-5 neg_nan
    "01413fbf30e42713d82b1723088b2699", // 1e-5 pos_inf
    "0226a7cd7dd44757715f85d68ba5aaef", // 1e-5 neg_inf
    "f2557dfcc4e8fe5228df63b7cc57c3cb", // 1e-5 pos_zero
    "f2557dfcc4e8fe5228df63b7cc57c3cb", // 1e-5 neg_zero
    "f2557dfcc4e8fe5228df63b7cc57c3cb", // 1e-5 min_subnormal
    "692112c96b4a46afa0e4b27a1abaed73", // 1e-5 neg_max_subnormal
    "8da7cb1e86e4f458653bb85320499468", // 1e-5 max
    "a2b77374dab8be3d6b3a0da998199f34", // 1e-5 min
    "22c2162fb2d48d2e3cd2dbd3ee832997", // 1e-5 on_grid
    "9552eb3496fea6562e25a6c61f87fc88", // 1e-5 below_grid
    "22c2162fb2d48d2e3cd2dbd3ee832997", // 1e-5 above_grid
    "794287c42a6f3b355b23e9c0bdc8e0e6", // 1e-5 neg_on_grid
    "794287c42a6f3b355b23e9c0bdc8e0e6", // 1e-5 neg_below_grid
    "ecbdd005450e063cab469664207f59b5", // 1e-5 neg_above_grid
    "7dfb92c0a9003d9e6c76ebcbdad669d4", // 1e-3 nan
    "7dfb92c0a9003d9e6c76ebcbdad669d4", // 1e-3 nan_payload
    "7dfb92c0a9003d9e6c76ebcbdad669d4", // 1e-3 neg_nan
    "01413fbf30e42713d82b1723088b2699", // 1e-3 pos_inf
    "0226a7cd7dd44757715f85d68ba5aaef", // 1e-3 neg_inf
    "f2557dfcc4e8fe5228df63b7cc57c3cb", // 1e-3 pos_zero
    "f2557dfcc4e8fe5228df63b7cc57c3cb", // 1e-3 neg_zero
    "f2557dfcc4e8fe5228df63b7cc57c3cb", // 1e-3 min_subnormal
    "692112c96b4a46afa0e4b27a1abaed73", // 1e-3 neg_max_subnormal
    "8da7cb1e86e4f458653bb85320499468", // 1e-3 max
    "a2b77374dab8be3d6b3a0da998199f34", // 1e-3 min
    "22c2162fb2d48d2e3cd2dbd3ee832997", // 1e-3 on_grid
    "9552eb3496fea6562e25a6c61f87fc88", // 1e-3 below_grid
    "22c2162fb2d48d2e3cd2dbd3ee832997", // 1e-3 above_grid
    "794287c42a6f3b355b23e9c0bdc8e0e6", // 1e-3 neg_on_grid
    "794287c42a6f3b355b23e9c0bdc8e0e6", // 1e-3 neg_below_grid
    "ecbdd005450e063cab469664207f59b5", // 1e-3 neg_above_grid
];

const PREFIXES: &[&str] = &[
    "692112c96b4a46afa0e4b27a1abaed73", // 1e-7 len 1
    "affbb3d20208e072903113494cb0df3a", // 1e-7 len 2
    "115a6af9e6c25202ce1f2622c9eb4714", // 1e-7 len 3
    "291e978ad9513822187eaf22f6632ede", // 1e-7 len 1023
    "e5c1106c78a96ed0e960991ea4a67277", // 1e-7 len 1024
    "692112c96b4a46afa0e4b27a1abaed73", // 1e-5 len 1
    "affbb3d20208e072903113494cb0df3a", // 1e-5 len 2
    "115a6af9e6c25202ce1f2622c9eb4714", // 1e-5 len 3
    "d0df0d05e84ee04b5c4b5668d87164c8", // 1e-5 len 1023
    "f23e178e0e3b8b87eccee45a9eb052bc", // 1e-5 len 1024
    "692112c96b4a46afa0e4b27a1abaed73", // 1e-3 len 1
    "affbb3d20208e072903113494cb0df3a", // 1e-3 len 2
    "115a6af9e6c25202ce1f2622c9eb4714", // 1e-3 len 3
    "5617cdd3ab7fe768208e81b4330dfed0", // 1e-3 len 1023
    "a0e1137cc57f93377554210b045ccc19", // 1e-3 len 1024
];

const PAGES: &[&str] = &[
    "40f02c2a38f57442909f2f1312b42257", // 1e-7 leaf 0
    "7cfc0399417313bacbc81d1d5dc9bd21", // 1e-7 leaf 1
    "b62efeb4c2e9beeb3b3de6283b82b907", // 1e-7 leaf 2
    "e30457673715b809cac38e08beac250c", // 1e-7 leaf 3
    "3774b834286bb2e7ad042b0f484bc1e8", // 1e-7 leaf 4
    "d61ad71935923b51b25b470e7198270e", // 1e-7 leaf 5
    "4e45d951be0f54f025d8b09da6d935d9", // 1e-5 leaf 0
    "6fa9101db67c6b67cb38bc2ad0515ae0", // 1e-5 leaf 1
    "fefcfac03f70be95fb5ac7b0fe65eba8", // 1e-5 leaf 2
    "7412771b40dd9693d9eddd9ebed19d8e", // 1e-5 leaf 3
    "2ef0b73563fb128a3f646c99d14ed323", // 1e-5 leaf 4
    "106f67703d67548fd6a1e7fcdea2a0d6", // 1e-5 leaf 5
    "81217072933ac22fc252882b90c4379d", // 1e-3 leaf 0
    "8ad7a362c1da1e36ac2c1c0a726601da", // 1e-3 leaf 1
    "1d4b5e79b1ec3bc7c90a255fae0930d3", // 1e-3 leaf 2
    "a67af2e03b9988f6c5995657a7492629", // 1e-3 leaf 3
    "dfde85d23aeb7f7674a2cfa471c574b8", // 1e-3 leaf 4
    "106f67703d67548fd6a1e7fcdea2a0d6", // 1e-3 leaf 5
];

const TREES: &[&str] = &[
    "e3c935f22afb631edb1e0f23dd79752a", // 1e-7 root
    "2d7811e53a8771ed41c02b0289380e1c", // 1e-7 leaf 0
    "303f17d8250a1df99a09d69d6b9210e5", // 1e-7 leaf 2048
    "6cd332267f6d42687d099579fa3bbd98", // 1e-7 leaf 4096
    "2ceabbcc3ec75181f0f748b7dd76a3c0", // 1e-5 root
    "16f3e1f568d9c100902980b46615377a", // 1e-5 leaf 0
    "43054af66e2d3479912a770f0f67975f", // 1e-5 leaf 2048
    "b724a22e942a0280246f391311448ce6", // 1e-5 leaf 4096
    "07a5b1346f2791391cf5e8590ac77c94", // 1e-3 root
    "d4714ff485040cd0eeb918ba0d37c628", // 1e-3 leaf 0
    "8052e970e2b375ecba4f3130b8c38d5c", // 1e-3 leaf 2048
    "5c0962b9ead695f58c2a23c4b84d1eb4", // 1e-3 leaf 4096
];
