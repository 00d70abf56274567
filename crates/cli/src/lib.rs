//! The `reprocmp` command-line tool — the paper's "offline mode".
//!
//! Subcommands:
//!
//! * `create-tree` — hash a checkpoint file under an error bound and
//!   write its Merkle metadata next to it.
//! * `compare` — compare two checkpoint files (with existing metadata
//!   files, or without, streaming and verifying every chunk) and list
//!   the differences.
//! * `compare-many` — batch-compare N runs against a baseline (or all
//!   pairs) through the multi-run scheduler and its shared metadata
//!   cache.
//! * `info` — describe a checkpoint or metadata file.
//! * `ingest` / `gc` / `scrub` / `store-stats` / `store-remove` —
//!   persistent content-addressed capture: dedup ingest into packfiles,
//!   pack garbage collection, bit-rot scrubbing, and the dedup ledger.
//!   `compare`/`compare-many --store D` read `name@version` objects
//!   straight out of the store.
//! * `serve` / `submit` / `status` / `watch` — comparison as a
//!   service: a daemon owning the store exclusively and serving
//!   ingest/compare/materialize jobs to concurrent clients over a
//!   length-prefixed wire protocol, with fair queuing, admission
//!   control, and streamed flight-recorder events.
//! * `simulate` — run the bundled mini-HACC simulation and capture a
//!   checkpoint history through the VELOC-style client, giving users a
//!   self-contained way to produce two divergent runs to compare.
//! * `trace` / `perf-diff` — the flight recorder: run a journaled
//!   comparison and export a Chrome-trace/Perfetto timeline, and diff
//!   two committed performance baselines under a regression budget.
//!
//! The argument parser is deliberately tiny (`--flag value` pairs);
//! see [`args::ArgMap`].

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod args;
pub mod commands;
pub mod term;

use std::fmt::Write as _;

/// CLI errors: bad usage or a failing command.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line; the string is a usage message.
    Usage(String),
    /// The command ran and failed.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Top-level usage text.
#[must_use]
fn usage() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "reprocmp — scalable capture & comparison of intermediate results"
    );
    let _ = writeln!(s);
    let _ = writeln!(s, "USAGE: reprocmp <command> [--flag value]...");
    let _ = writeln!(s);
    let _ = writeln!(s, "COMMANDS:");
    let _ = writeln!(
        s,
        "  create-tree  --input F --output F [--chunk-bytes 4096] [--error-bound 1e-5]"
    );
    let _ = writeln!(s, "  compare      --run1 F --run2 F [--tree1 F --tree2 F]");
    let _ = writeln!(
        s,
        "               (without both trees: streams and verifies every chunk)"
    );
    let _ = writeln!(
        s,
        "               [--chunk-bytes 4096] [--error-bound 1e-5] [--max-diffs 20]"
    );
    let _ = writeln!(
        s,
        "               [--retry-attempts 1] [--failure-policy abort|quarantine]"
    );
    let _ = writeln!(
        s,
        "               [--strict]   (exit non-zero if any chunk went unverified)"
    );
    let _ = writeln!(
        s,
        "               [--store D]  (runs are name@version objects in the store)"
    );
    let _ = writeln!(
        s,
        "               [--profile]  (per-stage time/bytes/ops table)"
    );
    let _ = writeln!(
        s,
        "               [--json]     (full machine-readable report + histogram quantiles)"
    );
    let _ = writeln!(
        s,
        "               [--trace F]  (write a Chrome-trace/Perfetto event timeline)"
    );
    let _ = writeln!(
        s,
        "               [--flamegraph F]  (write folded stacks for flamegraph.pl)"
    );
    let _ = writeln!(
        s,
        "  compare-many --runs F,F,... (--baseline F | --all-pairs)"
    );
    let _ = writeln!(
        s,
        "               [--no-cache] [--shards N] [--lanes N] [--store D] [--strict] [--json]"
    );
    let _ = writeln!(
        s,
        "               (batch comparison with the shared metadata cache)"
    );
    let _ = writeln!(s, "  info         --input F");
    let _ = writeln!(
        s,
        "  ingest       --store D --input F [--name S] [--version N]"
    );
    let _ = writeln!(
        s,
        "               [--chunk-bytes 4096] [--with-meta [--error-bound 1e-5]] [--json]"
    );
    let _ = writeln!(
        s,
        "               [--delta [--anchor-every 8] [--max-depth 16]]"
    );
    let _ = writeln!(
        s,
        "               (content-addressed capture: stores only never-seen chunks;"
    );
    let _ = writeln!(
        s,
        "                --delta skips chunks unchanged since the previous version)"
    );
    let _ = writeln!(
        s,
        "  gc           --store D [--json]   (delete fully unreferenced packs)"
    );
    let _ = writeln!(
        s,
        "  scrub        --store D  (re-hash every chunk; exits non-zero on bit rot)"
    );
    let _ = writeln!(s, "  fsck         --store D [--repair] [--json]");
    let _ = writeln!(
        s,
        "               (integrity pass; --repair reconstructs single-chunk damage from"
    );
    let _ = writeln!(
        s,
        "                parity and quarantines unrecoverable packs; exit 0 iff healthy)"
    );
    let _ = writeln!(
        s,
        "  store-stats  --store D [--json]   (dedup ledger + objects)"
    );
    let _ = writeln!(
        s,
        "  store-remove --store D --run name@version  (drop one stored checkpoint)"
    );
    let _ = writeln!(
        s,
        "  chain        --store D --run name@version [--flatten] [--json]"
    );
    let _ = writeln!(
        s,
        "               (show the delta chain a checkpoint restores through;"
    );
    let _ = writeln!(
        s,
        "                --flatten rewrites its deltas to full, unpinning ancestors)"
    );
    let _ = writeln!(
        s,
        "  serve        --store D [--addr 127.0.0.1:0] [--addr-file F] [--workers 2]"
    );
    let _ = writeln!(
        s,
        "               [--queue 64] [--quantum 8] [--chunk-bytes 4096] [--error-bound 1e-5]"
    );
    let _ = writeln!(
        s,
        "               (comparison-as-a-service daemon; owns the store exclusively"
    );
    let _ = writeln!(
        s,
        "                until a client sends shutdown, then drains and exits)"
    );
    let _ = writeln!(
        s,
        "  submit       --addr H:P [--client S] [--no-wait]  + one job:"
    );
    let _ = writeln!(
        s,
        "               --input F --name S --version N [--chunk-bytes 4096]  (ingest)"
    );
    let _ = writeln!(
        s,
        "               --run1 name@ver --run2 name@ver                      (compare)"
    );
    let _ = writeln!(
        s,
        "               --baseline name@ver --runs name@ver,...         (compare-many)"
    );
    let _ = writeln!(
        s,
        "               --materialize name@ver                          (reconstruct)"
    );
    let _ = writeln!(
        s,
        "  status       --addr H:P --job N [--wait]   (job state + result document)"
    );
    let _ = writeln!(
        s,
        "  watch        --addr H:P --job N   (stream the job's flight-recorder events)"
    );
    let _ = writeln!(
        s,
        "  shutdown     --addr H:P   (drain in-flight jobs, release the store, exit)"
    );
    let _ = writeln!(
        s,
        "  metrics      --addr H:P [--prom]   (one telemetry snapshot: queue, workers,"
    );
    let _ = writeln!(
        s,
        "               store, registry — JSON, or Prometheus text with --prom)"
    );
    let _ = writeln!(
        s,
        "  top          (--addr H:P | --file telemetry.jsonl) [--frames N] [--keys S]"
    );
    let _ = writeln!(
        s,
        "               (live telemetry TUI; --frames/--keys replay deterministically)"
    );
    let _ = writeln!(
        s,
        "  simulate     --out-dir D [--particles 2048] [--steps 50] [--ranks 2]"
    );
    let _ = writeln!(
        s,
        "               [--order-seed N]  (omit --order-seed for a deterministic run)"
    );
    let _ = writeln!(
        s,
        "  census       --input F [--linking-length 0.02] [--min-members 12]"
    );
    let _ = writeln!(
        s,
        "               [--box-size 1.0]   (FoF halo census of a checkpoint)"
    );
    let _ = writeln!(
        s,
        "  gate         --golden-tree F --candidate F [--golden-data F]"
    );
    let _ = writeln!(
        s,
        "               [--max-diffs 10]   (CI gate; exits non-zero on regression)"
    );
    let _ = writeln!(
        s,
        "  trace        compare --run1 F --run2 F ... [--out trace.json]"
    );
    let _ = writeln!(
        s,
        "               (journaled comparison; open the output in ui.perfetto.dev)"
    );
    let _ = writeln!(s, "  perf-diff    old.json new.json [--budget 10%]");
    let _ = writeln!(
        s,
        "               (stage/quantile regression check; exits non-zero past budget)"
    );
    let _ = writeln!(
        s,
        "  history      --run1-dir D --run2-dir D [--chunk-bytes 4096]"
    );
    let _ = writeln!(
        s,
        "               [--error-bound 1e-5]  (pairwise history comparison)"
    );
    let _ = writeln!(
        s,
        "  analyze      (--run1-dir D --run2-dir D | --store D --run1 S --run2 S)"
    );
    let _ = writeln!(
        s,
        "               [--json] [--keys \"l l t q\"] [--live] [--regions name:f32|f64:count,...]"
    );
    let _ = writeln!(
        s,
        "               (divergence forensics: O(log M) timeline bisection, front"
    );
    let _ = writeln!(
        s,
        "                tracking, per-region attribution; --keys replays the explorer"
    );
    let _ = writeln!(
        s,
        "                frame by frame; exit 0 clean, 1 divergent, 2 bad usage)"
    );
    s
}

/// Runs the CLI; `argv` excludes the program name. Returns the text to
/// print on success.
///
/// # Errors
///
/// [`CliError::Usage`] for malformed invocations, [`CliError::Failed`]
/// when a command fails.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some(command) = argv.first() else {
        return Err(CliError::Usage(usage()));
    };
    // Commands with positional arguments are dispatched before the
    // `--flag value` parser (which rejects bare tokens).
    match command.as_str() {
        "trace" => return commands::trace(&argv[1..]),
        "perf-diff" => {
            let positionals: Vec<&String> = argv[1..]
                .iter()
                .take_while(|t| !t.starts_with("--"))
                .collect();
            let [old, new] = positionals[..] else {
                return Err(CliError::Usage(
                    "perf-diff needs two files: reprocmp perf-diff old.json new.json \
                     [--budget 10%]"
                        .to_owned(),
                ));
            };
            let rest = args::ArgMap::parse(&argv[3..])?;
            return commands::perf_diff(old, new, &rest);
        }
        _ => {}
    }
    let rest = args::ArgMap::parse(&argv[1..])?;
    match command.as_str() {
        "create-tree" => commands::create_tree(&rest),
        "compare" => commands::compare(&rest),
        "compare-many" => commands::compare_many(&rest),
        "info" => commands::info(&rest),
        "ingest" => commands::ingest(&rest),
        "gc" => commands::gc(&rest),
        "scrub" => commands::scrub(&rest),
        "fsck" => commands::fsck(&rest),
        "store-stats" => commands::store_stats(&rest),
        "store-remove" => commands::store_remove(&rest),
        "chain" => commands::chain(&rest),
        "serve" => commands::serve(&rest),
        "submit" => commands::submit(&rest),
        "status" => commands::status(&rest),
        "watch" => commands::watch(&rest),
        "shutdown" => commands::shutdown(&rest),
        "metrics" => commands::metrics(&rest),
        "top" => commands::top(&rest),
        "simulate" => commands::simulate(&rest),
        "census" => commands::census(&rest),
        "gate" => commands::gate(&rest),
        "history" => commands::history(&rest),
        "analyze" => commands::analyze(&rest),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{}",
            usage()
        ))),
    }
}
