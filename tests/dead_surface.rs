//! No dead public surface: every non-test `pub fn` in `crates/*/src`
//! must be named by some other file under `crates/`, `src/`, `tests/`,
//! `examples/` or `benchmark/src/`. A new function without a caller
//! fails: give it a caller, make it private, or delete it.
//!
//! The scan is textual: a name counts as used wherever it appears as a
//! whole word, comments included. A `pub fn` counts as test code when an
//! attribute above it is `#[cfg(test)]`, or when it sits inside a
//! `#[cfg(test)]` module (up to the module's closing brace at its own
//! indent, as `rustfmt` lays it out).

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

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
    // This file is not a caller of anything it scans.
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
fn every_public_function_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dead = dead_surface(root);
    assert!(
        dead.is_empty(),
        "public functions nothing else names: give each a caller, make it private, \
         or delete it: {dead:#?}"
    );
}
