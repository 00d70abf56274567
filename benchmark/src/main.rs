//! The wall-clock benchmark spine: `benchmark run` measures, `benchmark
//! diff` compares two result files under each metric's bound.

mod diff;
mod emit;
mod gen;
mod layers;
mod metrics;
mod procfs;
mod report;
mod runner;
mod stats;
mod surface;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use runner::{run_traced, run_untraced, RunConfig, RunOutput};
use surface::Res;
use workloads::capture::Capture;
use workloads::compare::Compare;
use workloads::daemon_mix::DaemonMix;
use workloads::store_cycle::StoreCycle;

const USAGE: &str = "\
usage: benchmark run  [--workload W] [--seed N] [--seconds S] [--trace [0|1|both]]
                      [--runs R] [--sets K] [--out DIR]
       benchmark diff A.json B.json [--set-a N] [--set-b N]

run   measures one workload (or all five) from generated inputs, checks
      every output, prints every metric by name with its unit, writes
      DIR/BENCH.json (and DIR/trace-<workload>.json with --trace), and
      ends with one JSON line: correct, attempted, failed, metrics.
      --trace 0 (default) is the untraced run that gives the end-to-end
      metrics; --trace 1 is the traced run that gives the per-layer
      metrics; a bare --trace does both. --runs R repeats the untraced
      run R times into a run set (median and range recorded); --sets K
      measures K run sets.
diff  applies each end-to-end metric's bound to the two files' set
      medians; exits 1 on a regression.
workloads: capture compare_sparse compare_dense store_cycle daemon_mix
";

/// `--flag value` pairs after the subcommand; a bare `--trace` is `both`.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(tokens: &[String]) -> Args {
        let mut args = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = tokens.iter().peekable();
        while let Some(tok) = it.next() {
            match tok.strip_prefix("--") {
                Some(flag) => {
                    let value = match it.peek() {
                        Some(next) if !next.starts_with("--") => it.next().cloned(),
                        _ => None,
                    };
                    args.flags
                        .push((flag.to_owned(), value.unwrap_or_else(|| "both".to_owned())));
                }
                None => args.positional.push(tok.clone()),
            }
        }
        args
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Res<T> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{flag}: cannot parse `{raw}`")),
        }
    }
}

fn run_one(name: &str, cfg: &RunConfig, trace: bool) -> Res<RunOutput> {
    macro_rules! go {
        ($w:ty) => {
            if trace {
                run_traced::<$w>(cfg)
            } else {
                run_untraced::<$w>(cfg)
            }
        };
    }
    match name {
        "capture" => go!(Capture),
        "compare_sparse" => go!(Compare<false>),
        "compare_dense" => go!(Compare<true>),
        "store_cycle" => go!(StoreCycle),
        "daemon_mix" => go!(DaemonMix),
        other => Err(format!("unknown workload `{other}`\n\n{USAGE}")),
    }
}

fn cmd_run(args: &Args) -> Res<ExitCode> {
    let cfg = RunConfig {
        seed: args.parsed("seed", 1u64)?,
        seconds: args.parsed("seconds", 10.0f64)?,
        out_dir: PathBuf::from(args.get("out").unwrap_or("benchmark/out")),
    };
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    let (untraced, traced) = match args.get("trace").unwrap_or("0") {
        "0" => (true, false),
        "1" => (false, true),
        "both" => (true, true),
        other => return Err(format!("--trace takes 0, 1 or both, not `{other}`")),
    };
    let names: Vec<&str> = match args.get("workload") {
        Some(w) => vec![w],
        None => metrics::WORKLOADS.to_vec(),
    };
    // One workload, one run: the driver's shape, measured in this
    // process. Anything more is a run-set measurement, three runs to a
    // set unless told otherwise, and every run of it is a child process
    // of that same shape, so heap left behind by one run cannot show in
    // the next one's peak RSS and a baseline is measured exactly as the
    // driver measures.
    let single = args.get("workload").is_some();
    let runs = args.parsed("runs", if single { 1usize } else { 3 })?.max(1);
    let sets = args.parsed("sets", 1usize)?.max(1);
    let in_process = single && runs == 1 && sets == 1 && !(untraced && traced);

    let measure = |name: &str, trace: bool| -> Res<RunOutput> {
        let kind = if trace { "per-layer" } else { "end-to-end" };
        if in_process {
            let out = run_one(name, &cfg, trace)?;
            report::print_run(name, kind, &out);
            return Ok(out);
        }
        let status =
            std::process::Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
                .args(["run", "--workload", name])
                .args(["--seed", &cfg.seed.to_string()])
                .args(["--seconds", &cfg.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&cfg.out_dir)
                .status()
                .map_err(|e| format!("cannot start a child run: {e}"))?;
        if !status.success() {
            return Err(format!("child run of {name} ended with {status}"));
        }
        report::read_run(&cfg.out_dir, name, trace)
    };

    let mut bench = report::Bench::new(&cfg, runs);
    let mut last = RunOutput::default();
    for name in &names {
        for set in 1..=sets * usize::from(untraced) {
            let set_runs = (0..runs)
                .map(|_| measure(name, false))
                .collect::<Res<Vec<_>>>()?;
            bench.add_set(name, set, &set_runs);
            last = set_runs.into_iter().next_back().expect("runs >= 1");
        }
        if traced {
            last = measure(name, true)?;
            bench.add_layers(name, &last);
        }
    }
    bench.write(&cfg.out_dir)?;
    // The contract's result line: the last run measured. With
    // `--workload W` and one run that is the only run there was.
    println!("{}", report::result_line(&last, traced));
    Ok(if bench.correct() || in_process {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => cmd_run(&Args::parse(&argv[1..])),
        Some("diff") => diff::cmd_diff(&Args::parse(&argv[1..])),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
