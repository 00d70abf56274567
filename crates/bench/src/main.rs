//! The figure runner: one entry per result file of the paper's
//! evaluation and of this repository's own figures.
//!
//! ```sh
//! cargo run --release -p reprocmp-bench -- all        # every entry, in table order
//! cargo run --release -p reprocmp-bench -- fig5 fig9  # entries by name
//! ```
//!
//! Modeled entries run on virtual clocks and counters, so they write
//! the same bytes on every host; CI regenerates them and diffs the
//! committed files. Measured entries time the host's wall clock and
//! are never diff-checked.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

mod figures {
    pub mod ablate;
    pub mod daemon;
    pub mod fig10;
    pub mod fig5;
    pub mod fig6;
    pub mod fig7;
    pub mod fig8;
    pub mod fig9;
    pub mod fig_dedup;
    pub mod fig_delta;
    pub mod fig_divergence;
    pub mod fig_multirun;
    pub mod table1;
    pub mod table2;
}

use figures::{
    ablate, daemon, fig10, fig5, fig6, fig7, fig8, fig9, fig_dedup, fig_delta, fig_divergence,
    fig_multirun, table1, table2,
};

/// What an entry's numbers are, which decides where its file goes.
#[derive(Clone, Copy)]
enum Kind {
    /// Virtual time and counts: `bench_results/<name>.json`.
    Modeled,
    /// Host wall clock: `bench_results/measured_<name>.json`.
    Measured,
    /// A modeled compare profile: `tests/goldens/<name>.json`.
    Golden,
}

struct Entry {
    name: &'static str,
    kind: Kind,
    /// Prints the entry's tables and returns its file's contents.
    run: fn() -> String,
}

impl Entry {
    fn path(&self) -> PathBuf {
        match self.kind {
            Kind::Modeled => format!("bench_results/{}.json", self.name),
            Kind::Measured => format!("bench_results/measured_{}.json", self.name),
            Kind::Golden => format!("tests/goldens/{}.json", self.name),
        }
        .into()
    }
}

const fn entry(name: &'static str, kind: Kind, run: fn() -> String) -> Entry {
    Entry { name, kind, run }
}

const ENTRIES: &[Entry] = &[
    entry("table1", Kind::Modeled, table1::run),
    entry("table2", Kind::Modeled, table2::run),
    entry("fig5", Kind::Modeled, fig5::run),
    entry("fig6", Kind::Modeled, fig6::run),
    entry("fig7", Kind::Modeled, fig7::run),
    entry("fig8", Kind::Modeled, fig8::run),
    entry("fig9", Kind::Modeled, fig9::run),
    entry("fig10", Kind::Modeled, fig10::run),
    entry("ablate", Kind::Modeled, ablate::run),
    entry("ablate_block", Kind::Measured, ablate::block_size),
    entry("fig_multirun", Kind::Modeled, fig_multirun::run),
    entry("fig_dedup", Kind::Modeled, fig_dedup::run),
    entry("fig_delta", Kind::Modeled, fig_delta::run),
    entry("fig_divergence", Kind::Modeled, fig_divergence::run),
    entry("divergence_profile", Kind::Golden, fig_divergence::profile),
    entry("fig_server", Kind::Measured, daemon::fig_server),
    entry(
        "server_compare_profile",
        Kind::Golden,
        daemon::server_profile,
    ),
    entry("fig_telemetry", Kind::Measured, daemon::fig_telemetry),
    entry("telemetry_profile", Kind::Golden, daemon::telemetry_profile),
];

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let mut chosen = Vec::new();
    for name in &names {
        match ENTRIES.iter().find(|e| e.name == name) {
            Some(e) => chosen.push(e),
            None if name == "all" => chosen.extend(ENTRIES),
            None => {
                eprintln!("error: unknown entry `{name}`");
                chosen.clear();
                break;
            }
        }
    }
    if chosen.is_empty() {
        eprintln!("usage: reprocmp-bench all | <entry>...\nentries:");
        for e in ENTRIES {
            eprintln!("  {:<24} -> {}", e.name, e.path().display());
        }
        return ExitCode::from(2);
    }
    for e in chosen {
        let path = e.path();
        if let Err(err) = reprocmp_bench::write_result(&path, &(e.run)()) {
            eprintln!("error: could not write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!("[{} -> {}]", e.name, path.display());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    #[test]
    fn entry_names_are_unique() {
        let names: BTreeSet<&str> = ENTRIES.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), ENTRIES.len());
        assert!(!names.contains("all"));
    }

    #[test]
    fn every_committed_result_has_exactly_one_entry() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        for entry in std::fs::read_dir(root.join("bench_results")).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            files.push(format!("bench_results/{name}"));
        }
        for entry in std::fs::read_dir(root.join("tests/goldens")).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if name.ends_with("_profile.json") {
                files.push(format!("tests/goldens/{name}"));
            }
        }
        assert!(files.len() >= 15, "found only {files:?}");
        for file in files {
            let writers = ENTRIES
                .iter()
                .filter(|e| e.path() == Path::new(&file))
                .count();
            assert_eq!(writers, 1, "{file} is written by {writers} entries");
        }
    }
}
