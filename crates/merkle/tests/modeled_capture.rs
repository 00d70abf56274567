//! The capture builder's modeled cost, pinned with literals.
//!
//! Each row is one build on a modeled device: every capture phase's
//! time, bytes and ops, the device's accrued modeled time, and the
//! root. The rows were generated once and are never regenerated: a
//! mismatch means the builder's workload charges, its phase
//! accounting, or the leaf digests moved.

use reprocmp_device::Device;
use reprocmp_hash::{ChunkHasher, Floats, Quantizer};
use reprocmp_merkle::MerkleTree;
use reprocmp_obs::{PhaseCost, StageBreakdown};

/// `(time ns, bytes, ops)` of one phase.
type Phase = (u64, u64, u64);

struct Row {
    device: &'static str,
    values: usize,
    chunk_bytes: usize,
    quantize: Phase,
    leaf_hash: Phase,
    level_build: Phase,
    modeled_ns: u64,
    root: &'static str,
}

fn device(name: &str) -> Device {
    match name {
        "sim-gpu" => Device::sim_gpu(),
        "sim-cpu-core" => Device::sim_cpu_core(),
        other => panic!("unknown device {other}"),
    }
}

fn payload(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.37).sin() * 10.0).collect()
}

fn capture(values: &[f32], chunk_bytes: usize, dev: &Device) -> (MerkleTree, StageBreakdown) {
    let hasher = ChunkHasher::new(Quantizer::new(1e-6).unwrap());
    MerkleTree::build(Floats::Values(values), chunk_bytes, &hasher, dev)
}

fn phase(p: PhaseCost) -> Phase {
    (p.time.as_nanos() as u64, p.bytes, p.ops)
}

/// Two devices × three payloads × two chunk sizes; 262 921 values
/// leave a short tail chunk at both chunk sizes.
const ROWS: &[Row] = &[
    Row {
        device: "sim-gpu",
        values: 32768,
        chunk_bytes: 4096,
        quantize: (10131, 131072, 32768),
        leaf_hash: (10393, 262144, 32),
        level_build: (50001, 1008, 31),
        modeled_ns: 70525,
        root: "76b8691c17f8eddce3e4cff0926577b4",
    },
    Row {
        device: "sim-gpu",
        values: 32768,
        chunk_bytes: 65536,
        quantize: (10131, 131072, 32768),
        leaf_hash: (10393, 262144, 2),
        level_build: (10000, 48, 1),
        modeled_ns: 30524,
        root: "1e72be5cfaa0f7a20815597ae6ed1501",
    },
    Row {
        device: "sim-gpu",
        values: 262921,
        chunk_bytes: 4096,
        quantize: (11052, 1051684, 262921),
        leaf_hash: (13155, 2103368, 257),
        level_build: (90016, 16368, 511),
        modeled_ns: 114223,
        root: "3ad7e5672693388ee58f3bb10602b3c3",
    },
    Row {
        device: "sim-gpu",
        values: 262921,
        chunk_bytes: 65536,
        quantize: (11052, 1051684, 262921),
        leaf_hash: (13155, 2103368, 17),
        level_build: (50001, 1008, 31),
        modeled_ns: 74208,
        root: "dab7e80ae3208d6fb322f09b4d4b2c7d",
    },
    Row {
        device: "sim-gpu",
        values: 1048576,
        chunk_bytes: 4096,
        quantize: (14194, 4194304, 1048576),
        leaf_hash: (22583, 8388608, 1024),
        level_build: (100032, 32752, 1023),
        modeled_ns: 136809,
        root: "83d1caade3f5a7996bd77fabedb36933",
    },
    Row {
        device: "sim-gpu",
        values: 1048576,
        chunk_bytes: 65536,
        quantize: (14194, 4194304, 1048576),
        leaf_hash: (22583, 8388608, 64),
        level_build: (60002, 2032, 63),
        modeled_ns: 96779,
        root: "8babd235c71e37620db1b4b615753917",
    },
    Row {
        device: "sim-cpu-core",
        values: 32768,
        chunk_bytes: 4096,
        quantize: (436957, 131072, 32768),
        leaf_hash: (1310770, 262144, 32),
        level_build: (581, 1008, 31),
        modeled_ns: 1748308,
        root: "76b8691c17f8eddce3e4cff0926577b4",
    },
    Row {
        device: "sim-cpu-core",
        values: 32768,
        chunk_bytes: 65536,
        quantize: (436957, 131072, 32768),
        leaf_hash: (1310770, 262144, 2),
        level_build: (61, 48, 1),
        modeled_ns: 1747788,
        root: "1e72be5cfaa0f7a20815597ae6ed1501",
    },
    Row {
        device: "sim-cpu-core",
        values: 262921,
        chunk_bytes: 4096,
        quantize: (3505663, 1051684, 262921),
        leaf_hash: (10516890, 2103368, 257),
        level_build: (5901, 16368, 511),
        modeled_ns: 14028454,
        root: "3ad7e5672693388ee58f3bb10602b3c3",
    },
    Row {
        device: "sim-cpu-core",
        values: 262921,
        chunk_bytes: 65536,
        quantize: (3505663, 1051684, 262921),
        leaf_hash: (10516890, 2103368, 17),
        level_build: (581, 1008, 31),
        modeled_ns: 14023134,
        root: "dab7e80ae3208d6fb322f09b4d4b2c7d",
    },
    Row {
        device: "sim-cpu-core",
        values: 1048576,
        chunk_bytes: 4096,
        quantize: (13981063, 4194304, 1048576),
        leaf_hash: (41943090, 8388608, 1024),
        level_build: (11412, 32752, 1023),
        modeled_ns: 55935565,
        root: "83d1caade3f5a7996bd77fabedb36933",
    },
    Row {
        device: "sim-cpu-core",
        values: 1048576,
        chunk_bytes: 65536,
        quantize: (13981063, 4194304, 1048576),
        leaf_hash: (41943090, 8388608, 64),
        level_build: (972, 2032, 63),
        modeled_ns: 55925125,
        root: "8babd235c71e37620db1b4b615753917",
    },
];

#[test]
fn every_capture_phase_and_the_modeled_total_match_the_pinned_rows() {
    for row in ROWS {
        let dev = device(row.device);
        let (tree, p) = capture(&payload(row.values), row.chunk_bytes, &dev);
        let at = format!(
            "{} {} values {} B chunks",
            row.device, row.values, row.chunk_bytes
        );
        assert_eq!(phase(p.quantize), row.quantize, "quantize, {at}");
        assert_eq!(phase(p.leaf_hash), row.leaf_hash, "leaf_hash, {at}");
        assert_eq!(phase(p.level_build), row.level_build, "level_build, {at}");
        assert_eq!(
            dev.modeled_time().as_nanos() as u64,
            row.modeled_ns,
            "modeled time, {at}"
        );
        assert_eq!(tree.root().to_string(), row.root, "root, {at}");
        // Capture touches no compare-side phase.
        assert_eq!(p.capture_time(), p.total_time(), "{at}");
    }
}
