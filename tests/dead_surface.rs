//! A ratchet on dead public surface: every non-test `pub fn` in
//! `crates/*/src` whose name appears in no other file under `crates/`,
//! `src/`, `tests/`, `examples/` or `benchmark/src/` must be on
//! [`KEPT`], and every entry on [`KEPT`] must still be such a name. A
//! new function without a caller fails the first check; giving a kept
//! one a caller, or deleting it, fails the second until its entry goes.
//! So the list can only shrink.
//!
//! The scan is textual: a name counts as used wherever it appears as a
//! whole word, comments included. A `pub fn` counts as test code when an
//! attribute above it is `#[cfg(test)]`, or when it sits inside a
//! `#[cfg(test)]` module (up to the module's closing brace at its own
//! indent, as `rustfmt` lays it out).

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// `(file, function, the ROADMAP item that decides it)`: public API no
/// other file names, each kept until its item gives it a caller or
/// deletes it.
const KEPT: &[(&str, &str, &str)] = &[
    ("crates/analyze/src/front.rs", "first_flagged", "item 11"),
    (
        "crates/analyze/src/tui/explorer.rs",
        "cursor_iteration",
        "item 11",
    ),
    ("crates/analyze/src/tui/top.rs", "cursor_seq", "item 11"),
    ("crates/cluster/src/lib.rs", "allgather_f64", "item 20"),
    ("crates/cluster/src/lib.rs", "allreduce_max_f64", "item 20"),
    ("crates/cluster/src/lib.rs", "broadcast_bytes", "item 20"),
    ("crates/cluster/src/lib.rs", "exscan_sum_f64", "item 20"),
    ("crates/cluster/src/lib.rs", "procs_per_node", "item 20"),
    (
        "crates/core/src/history.rs",
        "compare_history_many",
        "item 22",
    ),
    (
        "crates/core/src/history.rs",
        "first_divergent_run",
        "item 22",
    ),
    ("crates/device/src/model.rs", "cpu_socket", "item 20"),
    ("crates/device/src/runner.rs", "reduce_sum_f64", "item 20"),
    ("crates/hacc/src/decomp.rs", "owned_ids", "item 20"),
    ("crates/hacc/src/decomp.rs", "rank_of", "item 20"),
    ("crates/hacc/src/fft.rs", "from_angle", "item 20"),
    ("crates/hacc/src/nondet.rs", "is_deterministic", "item 20"),
    ("crates/hacc/src/particles.rs", "kinetic_energy", "item 20"),
    ("crates/hacc/src/sim.rs", "from_state", "item 20"),
    ("crates/hacc/src/sim.rs", "particle_mass", "item 20"),
    ("crates/hacc/src/sim.rs", "step_count", "item 20"),
    ("crates/io/src/clock.rs", "advance_to", "item 11"),
    ("crates/io/src/mmap.rs", "resident_pages", "item 11"),
    ("crates/io/src/retry.rs", "with_deadline", "item 11"),
    ("crates/io/src/storage.rs", "write_at", "item 11"),
    ("crates/obs/src/cache.rs", "node_lookups", "item 22"),
    ("crates/obs/src/cache.rs", "verdict_lookups", "item 22"),
    ("crates/obs/src/metrics.rs", "bucket_index", "item 15"),
    (
        "crates/obs/src/metrics.rs",
        "quantile_from_buckets",
        "item 15",
    ),
    ("crates/obs/src/stage.rs", "compare_time", "item 15"),
    ("crates/obs/src/telemetry.rs", "period", "item 11"),
    ("crates/obs/src/telemetry.rs", "prometheus_name", "item 11"),
    ("crates/store/src/journal.rs", "is_begin", "item 11"),
    ("crates/store/src/manifest.rs", "skipped_refs", "item 11"),
    ("crates/store/src/storage.rs", "pack_count", "item 11"),
    ("crates/store/src/store.rs", "forces_anchor", "item 11"),
    ("crates/store/src/store.rs", "quarantined_packs", "item 11"),
    ("crates/veloc/src/client.rs", "new_observed", "item 11"),
    ("crates/veloc/src/client.rs", "with_store_at", "item 19"),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The whole words of `text`: runs of ASCII alphanumerics and `_`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    let bytes = text.as_bytes();
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut at = 0;
    std::iter::from_fn(move || {
        while at < bytes.len() && !is_word(bytes[at]) {
            at += 1;
        }
        let start = at;
        while at < bytes.len() && is_word(bytes[at]) {
            at += 1;
        }
        (start < at).then(|| &text[start..at])
    })
}

/// The non-test `pub fn` names declared in `text`.
fn public_fns(text: &str) -> Vec<&str> {
    let lines: Vec<&str> = text.lines().collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim();
        let next = lines.get(i + 1).copied().unwrap_or("");
        if line == "#[cfg(test)]" && next.trim_start().starts_with("mod ") && next.ends_with('{') {
            // Skip to the module's closing brace, at its own indent.
            let indent = &next[..next.len() - next.trim_start().len()];
            let close = format!("{indent}}}");
            i += 2;
            while i < lines.len() && lines[i] != close {
                i += 1;
            }
        } else if let Some(rest) = line.strip_prefix("pub fn ") {
            let attributes = lines[..i]
                .iter()
                .rev()
                .map(|l| l.trim())
                .take_while(|l| l.starts_with("#[") || l.starts_with("///"));
            if !attributes.clone().any(|l| l == "#[cfg(test)]") {
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                names.push(&rest[..end]);
            }
        }
        i += 1;
    }
    names
}

/// `(file, name)` of every dead public function, paths relative to the
/// repository root.
fn dead_surface(root: &Path) -> BTreeSet<(String, String)> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    // This file names every kept function; it is not a caller.
    files.retain(|f| !f.ends_with(file!()));
    let texts: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).expect("a readable source file"))
        .collect();
    // For each word, the files it appears in (the first two suffice).
    let mut seen_in: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, text) in texts.iter().enumerate() {
        for word in words(text) {
            let at = seen_in.entry(word).or_default();
            if at.len() < 2 && at.last() != Some(&i) {
                at.push(i);
            }
        }
    }
    let mut dead = BTreeSet::new();
    for (i, (file, text)) in files.iter().zip(&texts).enumerate() {
        let rel = file.strip_prefix(root).expect("under the root");
        let in_crate_src = rel.starts_with("crates")
            && rel
                .components()
                .nth(2)
                .is_some_and(|c| c.as_os_str() == "src");
        if !in_crate_src {
            continue;
        }
        for name in public_fns(text) {
            if seen_in[name] == [i] {
                let rel = rel.to_str().expect("a utf-8 path").to_owned();
                dead.insert((rel, name.to_owned()));
            }
        }
    }
    dead
}

#[test]
fn public_functions_without_a_caller_are_the_kept_ones() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dead = dead_surface(root);
    let kept: BTreeSet<(String, String)> = KEPT
        .iter()
        .map(|&(file, name, _)| (file.to_owned(), name.to_owned()))
        .collect();
    let new: Vec<_> = dead.difference(&kept).collect();
    let revived: Vec<_> = kept.difference(&dead).collect();
    assert!(
        new.is_empty(),
        "public functions nothing else names: give each a caller, make it private, \
         or keep it with the ROADMAP item that decides it: {new:#?}"
    );
    assert!(
        revived.is_empty(),
        "kept entries that now have a caller or are gone; drop them: {revived:#?}"
    );
}
