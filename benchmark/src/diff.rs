//! `benchmark diff A.json B.json`: each end-to-end metric's bound
//! applied to the two files' run-set medians.

use std::process::ExitCode;

use crate::emit::{scan_f64, scan_str};
use crate::stats::{judge, worsening, Better, SetStat, Verdict};
use crate::surface::Res;
use crate::Args;

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
    pub stat: SetStat,
}

/// The end-to-end rows of run set `set` in a `BENCH.json` text.
pub fn parse_rows(text: &str, set: u64) -> Vec<Row> {
    text.lines()
        .filter(|l| scan_f64(l, "set") == Some(set as f64))
        .filter_map(|l| {
            Some(Row {
                workload: scan_str(l, "workload")?.to_owned(),
                metric: scan_str(l, "metric")?.to_owned(),
                unit: scan_str(l, "unit")?.to_owned(),
                better: Better::parse(scan_str(l, "better")?)?,
                bound: scan_f64(l, "bound")?,
                stat: SetStat {
                    median: scan_f64(l, "median")?,
                    min: scan_f64(l, "min")?,
                    max: scan_f64(l, "max")?,
                },
            })
        })
        .collect()
}

/// One printed row per (workload, metric) pair present in both files;
/// returns the table and the number of regressions.
pub fn diff_rows(old: &[Row], new: &[Row]) -> (String, usize) {
    let mut table = format!(
        "{:<15} {:<27} {:>14} {:>14} {:>9} {:>7} {:>7}  {}\n",
        "workload", "metric", "old median", "new median", "worse by", "bound", "spread", "verdict"
    );
    let mut regressions = 0;
    for o in old {
        let Some(n) = new
            .iter()
            .find(|n| n.workload == o.workload && n.metric == o.metric)
        else {
            continue;
        };
        // The old file's bound and direction are the contract.
        let verdict = judge(o.stat, n.stat, o.bound, o.better);
        regressions += usize::from(verdict == Verdict::Regression);
        table.push_str(&format!(
            "{:<15} {:<27} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}% {:>6.1}%  {}\n",
            o.workload,
            o.metric,
            o.stat.median,
            n.stat.median,
            worsening(o.stat.median, n.stat.median, o.better) * 100.0,
            o.bound * 100.0,
            o.stat.spread().max(n.stat.spread()) * 100.0,
            verdict.as_str(),
        ));
    }
    (table, regressions)
}

pub fn cmd_diff(args: &Args) -> Res<ExitCode> {
    let [a, b] = &args.positional[..] else {
        return Err("diff needs two files: benchmark diff A.json B.json".to_owned());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let old = parse_rows(&read(a)?, args.parsed("set-a", 1u64)?);
    let new = parse_rows(&read(b)?, args.parsed("set-b", 1u64)?);
    if old.is_empty() || new.is_empty() {
        return Err("no end-to-end rows for the chosen run set in one of the files".to_owned());
    }
    let (table, regressions) = diff_rows(&old, &new);
    print!("{table}");
    println!("{regressions} regression(s)");
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(metric: &str, better: &str, bound: f64, median: f64, min: f64, max: f64) -> String {
        format!(
            "{{\"workload\":\"capture\",\"set\":1,\"metric\":\"{metric}\",\"unit\":\"ms\",\
             \"better\":\"{better}\",\"bound\":{bound},\"median\":{median},\"min\":{min},\"max\":{max}}}"
        )
    }

    #[test]
    fn rows_round_trip_through_the_scan() {
        let text = format!(
            "{{\"end_to_end\":[\n{}\n]}}",
            row("op_p50_ms", "lower", 0.1, 80.5, 80.0, 81.0)
        );
        let rows = parse_rows(&text, 1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].metric, "op_p50_ms");
        assert_eq!(rows[0].better, Better::Lower);
        assert_eq!(rows[0].stat.median, 80.5);
        assert!(parse_rows(&text, 2).is_empty());
    }

    #[test]
    fn diff_counts_regressions_and_marks_unresolved() {
        let old = parse_rows(
            &[
                row("op_p50_ms", "lower", 0.1, 100.0, 99.0, 101.0),
                row("ops_per_s", "higher", 0.1, 10.0, 8.0, 12.0),
                row("read_amp", "lower", 0.01, 1.5, 1.5, 1.5),
            ]
            .join("\n"),
            1,
        );
        let new = parse_rows(
            &[
                row("op_p50_ms", "lower", 0.1, 120.0, 119.0, 121.0),
                row("ops_per_s", "higher", 0.1, 10.2, 10.1, 10.3),
                row("read_amp", "lower", 0.01, 1.5, 1.5, 1.5),
            ]
            .join("\n"),
            1,
        );
        let (table, regressions) = diff_rows(&old, &new);
        assert_eq!(regressions, 1);
        let verdict_of = |metric: &str| {
            let line = table.lines().find(|l| l.contains(metric)).unwrap();
            line.split_whitespace().last().unwrap().to_owned()
        };
        assert_eq!(verdict_of("op_p50_ms"), "REGRESSION");
        assert_eq!(verdict_of("ops_per_s"), "unresolved");
        assert_eq!(verdict_of("read_amp"), "unchanged");
    }
}
