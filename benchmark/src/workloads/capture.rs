//! `capture`: `create-tree` over four distinct checkpoints.
//!
//! The paper's capture cost. `hash` and `device` do most of the work;
//! `merkle`, `io`, `store` and `server` almost none.

use std::path::{Path, PathBuf};

use super::{
    fresh_dir, path_str, payload_values, read_file, serial_window, write_file, Limit, Mode,
    SerialOps, Window, Workload,
};
use crate::gen::{self, SplitMix64, CHUNK_BYTES, EPS};
use crate::surface::{self as sys, Res};
use crate::trace::Tracer;

/// Payload of one checkpoint, 16 MiB: eight times L2, and under the
/// 32 MiB line above which glibc maps every buffer afresh. Real
/// checkpoints are over that line, but in this sandbox a fresh mapping
/// is backed by the hypervisor on first touch at under 1 GB/s with a
/// 10-20 % run-to-run spread: at 32 MiB every timing metric measured
/// that, not the program (`compare_sparse`: 61 ms an op against 7 ms).
pub const CKPT_VALUES: usize = 4 << 20;
const CKPTS: usize = 4;

pub struct Capture {
    inputs: Vec<PathBuf>,
    outputs: Vec<PathBuf>,
    replay_output: PathBuf,
    /// Kept from set-up until the oracle has used them.
    payloads: Vec<Vec<f32>>,
    expected_trees: Vec<Vec<u8>>,
    engine: sys::Engine,
}

impl Workload for Capture {
    const NAME: &'static str = "capture";

    fn setup(seed: u64, dir: &Path) -> Res<Self> {
        let dir = fresh_dir(dir)?;
        let rng = SplitMix64::new(seed);
        let mut inputs = Vec::new();
        let mut payloads = Vec::new();
        for k in 0..CKPTS {
            let values = gen::base_values(&mut rng.fork(k as u64), CKPT_VALUES);
            let path = dir.join(format!("ckpt{k}.ckpt"));
            write_file(
                &path,
                &sys::encode_checkpoint(k as u64, &gen::regions(&values)),
            )?;
            inputs.push(path);
            payloads.push(values);
        }
        Ok(Capture {
            outputs: (0..CKPTS)
                .map(|k| dir.join(format!("ckpt{k}.tree")))
                .collect(),
            replay_output: dir.join("replay.tree"),
            inputs,
            payloads,
            expected_trees: Vec::new(),
            engine: sys::engine(),
        })
    }

    fn oracle(&mut self) -> Res<()> {
        let hasher = sys::hasher();
        self.expected_trees = std::mem::take(&mut self.payloads)
            .iter()
            .map(|v| sys::encode_tree(&sys::build_from_f32(v, &hasher, sys::Exec::Serial)))
            .collect();
        Ok(())
    }

    fn window(&mut self, limit: Limit, mode: Mode) -> Window {
        serial_window(self, limit, mode.tracer())
    }

    fn stored_bytes_per_user_byte(&self) -> f64 {
        self.expected_trees[0].len() as f64 / self.object_bytes() as f64
    }

    fn object_bytes(&self) -> u64 {
        (CKPT_VALUES * 4) as u64
    }

    fn teardown(self) -> Res<()> {
        Ok(())
    }
}

impl SerialOps for Capture {
    type Out = ();

    fn cycle_len(&self) -> u64 {
        CKPTS as u64
    }

    fn op(&mut self, k: u64) -> Res<()> {
        cli_create_tree(&self.inputs[k as usize], &self.outputs[k as usize])
    }

    fn check(&mut self, k: u64, (): ()) -> Res<u64> {
        let k = k as usize;
        let written = read_file(&self.outputs[k])?;
        // Remove it, so a later op that writes nothing cannot pass on
        // this op's output.
        std::fs::remove_file(&self.outputs[k]).map_err(|e| e.to_string())?;
        if written != self.expected_trees[k] {
            return Err(format!(
                "create-tree wrote {} bytes that differ from encode_tree(build_from_f32(host_serial))",
                written.len()
            ));
        }
        Ok(self.object_bytes())
    }

    fn replay(&mut self, k: u64, t: &mut Tracer) -> Res<()> {
        replay_create_tree(
            &self.inputs[k as usize],
            &self.replay_output,
            &self.engine,
            t,
        )
    }
}

/// The CLI's `create-tree` as public layer calls in its order.
pub fn replay_create_tree(
    input: &Path,
    output: &Path,
    engine: &sys::Engine,
    t: &mut Tracer,
) -> Res<()> {
    let bytes = t.span("cli.read_file", || read_file(input))?;
    let layout = t.span("veloc.decode_checkpoint", || sys::decode_checkpoint(&bytes))?;
    let payload = &bytes[layout.payload_offset..layout.payload_offset + layout.payload_len];
    let values = t.span("cli.payload_values", || payload_values(payload));
    let tree = t.span("core.build_metadata", || {
        sys::build_metadata(engine, &values)
    });
    let encoded = t.span("merkle.encode_tree", || sys::encode_tree(&tree));
    t.span("cli.write_output", || write_file(output, &encoded))?;
    t.span("cli.free_buffer", || drop((bytes, values, tree, encoded)));
    Ok(())
}

/// The opaque op: `reprocmp create-tree`.
pub fn cli_create_tree(input: &Path, output: &Path) -> Res<()> {
    sys::cli(&[
        "create-tree",
        "--input",
        path_str(input),
        "--output",
        path_str(output),
        "--chunk-bytes",
        &CHUNK_BYTES.to_string(),
        "--error-bound",
        &EPS.to_string(),
    ])
    .map(|_| ())
}
