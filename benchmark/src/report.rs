//! Result files and printed tables.
//!
//! `BENCH.json` keeps one row per line, so `benchmark diff` (and a
//! human with grep) can read it by string scan.

use std::path::Path;

use crate::emit::{scan_f64, scan_str, Json};
use crate::metrics::{end_to_end, END_TO_END};
use crate::procfs::{host, Host};
use crate::runner::{Metric, RunConfig, RunOutput, REPLAY_LAYERS};
use crate::stats::SetStat;
use crate::surface::Res;

pub const SCHEMA: f64 = 1.0;

pub struct Bench {
    host: Host,
    seed: u64,
    seconds: f64,
    runs_per_set: usize,
    objects: Vec<(String, u64)>,
    end_to_end: Vec<Json>,
    per_layer: Vec<Json>,
    slowest: Vec<Json>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    pub fn new(cfg: &RunConfig, runs_per_set: usize) -> Bench {
        Bench {
            host: host(),
            seed: cfg.seed,
            seconds: cfg.seconds,
            runs_per_set,
            objects: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            slowest: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn note_run(&mut self, workload: &str, out: &RunOutput) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        if !self.objects.iter().any(|(w, _)| w == workload) {
            self.objects.push((workload.to_owned(), out.object_bytes));
        }
        if let Some(e) = &out.first_failure {
            self.notes.push(format!("{workload}: first failure: {e}"));
        }
        self.notes
            .extend(out.notes.iter().map(|n| format!("{workload}: {n}")));
    }

    /// Files one run set: per metric, the median of its runs and their
    /// range.
    pub fn add_set(&mut self, workload: &str, set: usize, runs: &[RunOutput]) {
        for out in runs {
            self.note_run(workload, out);
        }
        for def in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|m| m.name == def.name))
                .map(|m| m.value)
                .collect();
            let stat = SetStat::of(&values);
            self.end_to_end.push(Json::object(vec![
                ("workload", Json::str(workload)),
                ("set", Json::Num(set as f64)),
                ("metric", Json::str(def.name)),
                ("unit", Json::str(def.unit)),
                ("better", Json::str(def.better.as_str())),
                ("bound", Json::Num(def.bound)),
                ("median", Json::Num(stat.median)),
                ("min", Json::Num(stat.min)),
                ("max", Json::Num(stat.max)),
                ("spread", Json::Num(stat.spread())),
                (
                    "runs",
                    Json::Array(values.into_iter().map(Json::Num).collect()),
                ),
                (
                    // The fewest ops behind any run's percentiles.
                    "latency_samples",
                    Json::Num(runs.iter().map(|r| r.samples).min().unwrap_or(0) as f64),
                ),
            ]));
        }
    }

    /// Files the traced run's per-layer table, and names the layer with
    /// the largest self time in the op's replay.
    pub fn add_layers(&mut self, workload: &str, out: &RunOutput) {
        self.note_run(workload, out);
        for m in &out.metrics {
            self.per_layer.push(Json::object(vec![
                ("workload", Json::str(workload)),
                ("metric", Json::str(&m.name)),
                ("unit", Json::str(&m.unit)),
                ("value", Json::Num(m.value)),
            ]));
        }
        let slowest = REPLAY_LAYERS
            .iter()
            .filter_map(|layer| {
                let name = format!("replay.{layer}_ms");
                out.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| (*layer, m.value))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((layer, ms)) = slowest {
            self.slowest.push(Json::object(vec![
                ("workload", Json::str(workload)),
                ("slowest_layer", Json::str(layer)),
                ("self_ms_per_op", Json::Num(ms)),
            ]));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn write(&self, out_dir: &Path) -> Res<()> {
        let doc = Json::object(vec![
            ("schema", Json::Num(SCHEMA)),
            (
                "host",
                Json::object(vec![
                    ("nproc", Json::Num(self.host.nproc as f64)),
                    ("l2_kib_per_core", Json::Num(self.host.l2_kib as f64)),
                    ("l3_kib_reported", Json::Num(self.host.l3_kib as f64)),
                    ("reads_served_by", Json::str("OS page cache")),
                ]),
            ),
            (
                "config",
                Json::object(vec![
                    ("seed", Json::Num(self.seed as f64)),
                    ("seconds", Json::Num(self.seconds)),
                    ("runs_per_set", Json::Num(self.runs_per_set as f64)),
                ]),
            ),
            (
                "object_bytes",
                Json::Object(
                    self.objects
                        .iter()
                        .map(|(w, b)| (w.clone(), Json::Num(*b as f64)))
                        .collect(),
                ),
            ),
            (
                "ops",
                Json::object(vec![
                    ("attempted", Json::Num(self.attempted as f64)),
                    ("failed", Json::Num(self.failed as f64)),
                ]),
            ),
            ("end_to_end", Json::Array(self.end_to_end.clone())),
            ("per_layer", Json::Array(self.per_layer.clone())),
            ("slowest_layer", Json::Array(self.slowest.clone())),
            (
                "notes",
                Json::Array(self.notes.iter().map(|n| Json::str(n)).collect()),
            ),
        ]);
        std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
        let path = out_dir.join("BENCH.json");
        std::fs::write(&path, doc.render_lines()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Reads back the one run a child `benchmark run --workload W` wrote to
/// `out_dir/BENCH.json`.
pub fn read_run(out_dir: &Path, workload: &str, traced: bool) -> Res<RunOutput> {
    let path = out_dir.join("BENCH.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value_key = if traced { "value" } else { "median" };
    let mut out = RunOutput::default();
    let mut in_notes = false;
    for line in text.lines() {
        if line.starts_with("\"notes\":[") || line.starts_with(']') {
            in_notes = line.starts_with('"');
        } else if let (Some(name), Some(unit), Some(value)) = (
            scan_str(line, "metric"),
            scan_str(line, "unit"),
            scan_f64(line, value_key),
        ) {
            out.metrics.push(Metric::new(name, unit, value));
            if let Some(samples) = scan_f64(line, "latency_samples") {
                out.samples = samples as usize;
            }
        } else if let (true, Some(note)) = (in_notes, line.strip_prefix('"')) {
            // A line of the notes array: a bare JSON string, filed
            // under its workload, which the caller will add again.
            let note = note.trim_end_matches(',');
            let note = note.strip_suffix('"').unwrap_or(note);
            let note = note
                .strip_prefix(workload)
                .map_or(note, |n| n.trim_start_matches(": "));
            out.notes.push(note.to_owned());
        }
    }
    let count = |key| scan_f64(&text, key).map_or(0, |n| n as u64);
    out.attempted = count("attempted");
    out.failed = count("failed");
    // The workload's name is a key only in the `object_bytes` map.
    out.object_bytes = count(workload);
    if out.metrics.is_empty() {
        return Err(format!("{}: no metric rows", path.display()));
    }
    Ok(out)
}

/// Every metric of one run, by name, with its unit.
pub fn print_run(workload: &str, kind: &str, out: &RunOutput) {
    println!(
        "== {workload}: {kind} ({} ops attempted, {} failed, {} latency samples, object {} B)",
        out.attempted, out.failed, out.samples, out.object_bytes
    );
    for m in &out.metrics {
        let bound = match end_to_end(&m.name) {
            Some(d) if kind == "end-to-end" => format!("  (bound {:.0} %)", d.bound * 100.0),
            _ => String::new(),
        };
        println!("  {:<38} {:>16.6} {}{bound}", m.name, m.value, m.unit);
    }
    if let Some(e) = &out.first_failure {
        println!("  FIRST FAILURE: {e}");
    }
    for n in &out.notes {
        println!("  {n}");
    }
}

/// The driver's result line. `fail_share` is left out of the untraced
/// metrics: the line already carries `attempted` and `failed`, and a
/// metric that is 0 has no relative bound.
pub fn result_line(out: &RunOutput, traced: bool) -> String {
    let metrics = out
        .metrics
        .iter()
        .filter(|m| traced || m.name != "fail_share")
        .map(|m| {
            (
                m.name.clone(),
                Json::object(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(&m.unit)),
                ]),
            )
        })
        .collect();
    Json::object(vec![
        ("correct", Json::Bool(out.failed == 0 && out.attempted > 0)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::Object(metrics)),
    ])
    .render()
}
