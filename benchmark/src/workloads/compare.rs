//! `compare_sparse` and `compare_dense`: `compare --tree1/--tree2` on
//! one checkpoint pair with precomputed metadata.
//!
//! Sparse is an early-iteration pair: metadata read and decode, BFS
//! pruning and scattered 4 KiB stage-2 reads should be the whole cost,
//! and `hash` is idle. Dense is the paper's Fig. 7 regime: the BFS
//! cannot prune, `io` streams near-sequential reads and the verify loop
//! dominates. A stage-2 change that helps one read pattern and hurts
//! the other shows in the pair of them.

use std::path::{Path, PathBuf};
use std::time::Duration;

use super::capture::cli_create_tree;
use super::{
    fresh_dir, path_str, read_file, serial_window, write_file, Limit, Mode, SerialOps, Window,
    Workload,
};
use crate::emit::scan_u64;
use crate::gen::{self, Divergence, SplitMix64, Truth, CHUNK_BYTES, EPS};
use crate::surface::{self as sys, Res};
use crate::trace::Tracer;

/// Per run; see `capture::CKPT_VALUES` for why 16 MiB.
pub const CKPT_VALUES: usize = super::capture::CKPT_VALUES;

/// A checkpoint pair on disk with its trees, and what the generator
/// knows about it.
pub struct PairFiles {
    pub run1: PathBuf,
    pub run2: PathBuf,
    pub tree1: PathBuf,
    pub tree2: PathBuf,
    pub a: Vec<f32>,
    pub b: Vec<f32>,
    pub truth: Truth,
}

impl PairFiles {
    /// Generates the pair, writes both checkpoints, and has the program
    /// itself capture their trees (they are this workload's inputs).
    pub fn create(
        dir: &Path,
        tag: &str,
        rng: &mut SplitMix64,
        values: usize,
        div: Divergence,
    ) -> Res<PairFiles> {
        let a = gen::base_values(rng, values);
        let (b, truth) = gen::diverge(rng, &a, div);
        let file = |n: &str| dir.join(format!("{tag}.{n}"));
        let pair = PairFiles {
            run1: file("run1.ckpt"),
            run2: file("run2.ckpt"),
            tree1: file("run1.tree"),
            tree2: file("run2.tree"),
            a,
            b,
            truth,
        };
        for (path, tree, values) in [
            (&pair.run1, &pair.tree1, &pair.a),
            (&pair.run2, &pair.tree2, &pair.b),
        ] {
            write_file(path, &sys::encode_checkpoint(1, &gen::regions(values)))?;
            cli_create_tree(path, tree)?;
        }
        Ok(pair)
    }

    pub fn tree_bytes(&self) -> u64 {
        [&self.tree1, &self.tree2]
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum()
    }

    /// The opaque op: `reprocmp compare --json` on the pair.
    pub fn cli_compare(&self) -> Res<String> {
        sys::cli(&[
            "compare",
            "--run1",
            path_str(&self.run1),
            "--run2",
            path_str(&self.run2),
            "--tree1",
            path_str(&self.tree1),
            "--tree2",
            path_str(&self.tree2),
            "--chunk-bytes",
            &CHUNK_BYTES.to_string(),
            "--error-bound",
            &EPS.to_string(),
            "--json",
        ])
    }

    /// Zero false negatives: the reported count is the generator's, and
    /// every truly different chunk was flagged and survived stage two.
    pub fn check_counts(&self, diff_count: u64, flagged: u64, false_positives: u64) -> Res<()> {
        if diff_count != self.truth.diff_count {
            return Err(format!(
                "compare reported {diff_count} differences, the generator made {}",
                self.truth.diff_count
            ));
        }
        let confirmed = flagged - false_positives.min(flagged);
        if confirmed != self.truth.different_chunks.len() as u64 {
            return Err(format!(
                "compare confirmed {confirmed} chunks, {} truly differ",
                self.truth.different_chunks.len()
            ));
        }
        Ok(())
    }

    pub fn check_json(&self, json: &str) -> Res<()> {
        let count =
            |key| scan_u64(json, key).ok_or_else(|| format!("no `{key}` in compare --json"));
        self.check_counts(
            count("diff_count")?,
            count("chunks_flagged")?,
            count("false_positive_chunks")?,
        )
    }

    /// The CLI's `compare` as public layer calls in its order; returns
    /// the engine's summary.
    pub fn replay(&self, engine: &sys::Engine, t: &mut Tracer) -> Res<sys::CompareSummary> {
        // Region map: run 1 is read and decoded once more up front.
        let bytes = t.span("cli.read_file", || read_file(&self.run1))?;
        t.span("veloc.decode_checkpoint", || sys::decode_checkpoint(&bytes))?;
        t.span("cli.free_buffer", || drop(bytes));
        let mut sources = Vec::new();
        for (run, tree) in [(&self.run1, &self.tree1), (&self.run2, &self.tree2)] {
            let bytes = t.span("cli.read_file", || read_file(run))?;
            let layout = t.span("veloc.decode_checkpoint", || sys::decode_checkpoint(&bytes))?;
            sources.push(t.span("io.open_files", || {
                sys::source_from_files(
                    run,
                    layout.payload_offset as u64,
                    layout.payload_len as u64,
                    tree,
                )
            })?);
            t.span("cli.free_buffer", || drop(bytes));
        }
        let id = t.begin("core.engine_compare");
        let summary = sys::engine_compare(engine, &sources[0], &sources[1]);
        t.end(id);
        let summary = summary?;
        t.reported_children(id, &phase_spans(&summary));
        self.check_counts(
            summary.diff_count,
            summary.chunks_flagged,
            summary.false_positive_chunks,
        )?;
        Ok(summary)
    }
}

/// The engine's own phase timers, filed under the layer doing the work.
pub fn phase_spans(s: &sys::CompareSummary) -> [(&'static str, Duration); 5] {
    [
        ("io.read_meta", s.read_meta),
        ("merkle.deserialize", s.deserialize),
        ("merkle.bfs", s.bfs),
        ("io.stage2_stream", s.stage2_stream),
        ("core.verify", s.verify),
    ]
}

pub struct Compare<const DENSE: bool> {
    pair: PairFiles,
    engine: sys::Engine,
}

impl<const DENSE: bool> Workload for Compare<DENSE> {
    const NAME: &'static str = if DENSE {
        "compare_dense"
    } else {
        "compare_sparse"
    };

    fn setup(seed: u64, dir: &Path) -> Res<Self> {
        let dir = fresh_dir(dir)?;
        let div = if DENSE { gen::DENSE } else { gen::SPARSE };
        Ok(Compare {
            pair: PairFiles::create(&dir, "pair", &mut SplitMix64::new(seed), CKPT_VALUES, div)?,
            engine: sys::engine(),
        })
    }

    fn oracle(&mut self) -> Res<()> {
        // The truth came with the pair; the payloads are only needed by
        // probes, so free them before the window measures peak RSS.
        self.pair.a = Vec::new();
        self.pair.b = Vec::new();
        Ok(())
    }

    fn window(&mut self, limit: Limit, mode: Mode) -> Window {
        serial_window(self, limit, mode.tracer())
    }

    fn stored_bytes_per_user_byte(&self) -> f64 {
        self.pair.tree_bytes() as f64 / (2 * self.object_bytes()) as f64
    }

    fn object_bytes(&self) -> u64 {
        (CKPT_VALUES * 4) as u64
    }

    fn teardown(self) -> Res<()> {
        Ok(())
    }
}

impl<const DENSE: bool> SerialOps for Compare<DENSE> {
    type Out = String;

    fn cycle_len(&self) -> u64 {
        1
    }

    fn op(&mut self, _k: u64) -> Res<String> {
        self.pair.cli_compare()
    }

    fn check(&mut self, _k: u64, json: String) -> Res<u64> {
        self.pair.check_json(&json)?;
        Ok(2 * self.object_bytes())
    }

    fn replay(&mut self, _k: u64, t: &mut Tracer) -> Res<()> {
        self.pair.replay(&self.engine, t).map(|_| ())
    }
}
