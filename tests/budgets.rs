//! Work budgets as tests: the paper's costs stated as inequalities over
//! counted work, not as stopwatch thresholds.
//!
//! `compare` with trees reads the VELOC header, both trees and the
//! chunks stage 1 flags — never the whole payload. The budget counts
//! `rchar` from `/proc/self/io`, which every `read`/`pread` in the
//! process adds to, page-cache hits included. That counter is per
//! process, so this file holds exactly one `#[test]`: a second test
//! running beside it would read into the same window.

use std::path::{Path, PathBuf};

use reprocmp::core::{ops, CompareEngine, EngineConfig};
use reprocmp::veloc::{decode_checkpoint, encode_checkpoint};
use serde::Value;

/// Slack for both VELOC headers and the reads of `/proc/self/io`.
const HEADER_SLACK: u64 = 64 << 10;

/// Bytes this process has read so far.
fn rchar() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").expect("/proc/self/io");
    io.lines()
        .find_map(|line| line.strip_prefix("rchar:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("an rchar line")
}

fn cli(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
    reprocmp_cli::run(&argv).unwrap_or_else(|e| panic!("reprocmp {args:?}: {e}"))
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

/// A deterministic value stream (SplitMix64 mapped into [-1, 1)).
fn values(seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z >> 40) as f32 / (1u64 << 23) as f32) - 1.0
        })
        .collect()
}

/// Writes a VELOC checkpoint of `data` split into four regions.
fn write_checkpoint(path: &Path, data: &[f32]) {
    let quarter = data.len() / 4;
    let names = ["x", "y", "z", "phi"];
    let regions: Vec<(&str, &[f32])> = names
        .iter()
        .zip(data.chunks(quarter))
        .map(|(n, c)| (*n, c))
        .collect();
    std::fs::write(path, encode_checkpoint(1, &regions)).expect("write checkpoint");
}

fn report_u64(report: &Value, section: &str, field: &str) -> u64 {
    report
        .get(section)
        .and_then(|s| s.get(field))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("report has no {section}.{field}"))
}

#[test]
fn compare_with_trees_reads_headers_trees_and_flagged_chunks_only() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("reprocmp-budgets-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| dir.join(name);

    // A 16 MiB pair with about 1 % of its 4 KiB chunks diverged.
    const VALUES: usize = 4 << 20;
    let a = values(1, VALUES);
    let mut b = a.clone();
    let values_per_chunk = 4096 / 4;
    for chunk in (0..VALUES / values_per_chunk).step_by(97) {
        b[chunk * values_per_chunk + 17] += 0.5;
    }
    write_checkpoint(&file("run1.ckpt"), &a);
    write_checkpoint(&file("run2.ckpt"), &b);
    drop((a, b));
    for run in ["run1", "run2"] {
        cli(&[
            "create-tree",
            "--input",
            path_str(&file(&format!("{run}.ckpt"))),
            "--output",
            path_str(&file(&format!("{run}.tree"))),
        ]);
    }
    let tree_bytes: u64 = ["run1.tree", "run2.tree"]
        .iter()
        .map(|t| std::fs::metadata(file(t)).unwrap().len())
        .sum();

    let before = rchar();
    let out = cli(&[
        "compare",
        "--run1",
        path_str(&file("run1.ckpt")),
        "--run2",
        path_str(&file("run2.ckpt")),
        "--tree1",
        path_str(&file("run1.tree")),
        "--tree2",
        path_str(&file("run2.tree")),
        "--json",
    ]);
    let read = rchar() - before;

    let report: Value = serde_json::from_str(&out).expect("compare --json");
    let flagged = report_u64(&report, "stats", "chunks_flagged");
    let reread = report_u64(&report, "stats", "bytes_reread");
    assert!(
        (40..=50).contains(&flagged),
        "about 1 % of 4096 chunks flagged: {flagged}"
    );
    let budget = HEADER_SLACK + tree_bytes + 2 * reread;
    assert!(
        read <= budget,
        "compare read {read} B; budget {budget} B = {HEADER_SLACK} headers + {tree_bytes} trees \
         + 2 x {reread} flagged"
    );

    // A region table far larger than the first header read: the open
    // grows its read until the table parses, and agrees with decoding
    // the whole file.
    let name_tail = "n".repeat(100);
    let names: Vec<String> = (0..5000)
        .map(|i| format!("region{i:05}{name_tail}"))
        .collect();
    let one = [1.5f32];
    let regions: Vec<(&str, &[f32])> = names.iter().map(|n| (n.as_str(), &one[..])).collect();
    let image = encode_checkpoint(3, &regions);
    let wide = file("wide.ckpt");
    std::fs::write(&wide, &image).unwrap();
    let engine = CompareEngine::new(EngineConfig::default());
    let tree = file("run1.tree");
    let opened = ops::open_file(&wide, Some(&tree), &engine).expect("header-only open");
    let whole = decode_checkpoint(&image).expect("whole-file decode");
    assert!(
        whole.payload_offset > 64 << 10,
        "the table outgrows the first read"
    );
    assert_eq!(opened.source.payload_offset, whole.payload_offset);
    assert_eq!(opened.source.payload_len, whole.payload_len);
    let in_memory = ops::open_file(&wide, None, &engine).expect("whole-file open");
    assert_eq!(opened.regions, in_memory.regions);
    assert_eq!(opened.regions.as_ref().map(Vec::len), Some(5000));

    // A header cut inside its region table fails with the whole-file
    // path's error text.
    let cut = file("cut.ckpt");
    std::fs::write(&cut, &image[..image.len() / 2]).unwrap();
    let header_only = ops::open_file(&cut, Some(&tree), &engine).unwrap_err();
    let whole_file = ops::open_file(&cut, None, &engine).unwrap_err();
    assert_eq!(header_only.to_string(), whole_file.to_string());
    assert!(
        header_only
            .to_string()
            .ends_with("checkpoint file truncated"),
        "{header_only}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
