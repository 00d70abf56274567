//! Wall-clock microbenchmarks of the two numbers the docs cite, as
//! plain `Instant` medians on the host:
//!
//! - **compare**: our engine against the `Direct` and `AllClose`
//!   baselines on one in-memory pair, at a loose and a tight bound;
//! - **capture**: what the application pays at checkpoint time —
//!   metadata hashing per chunk size, beside the VELOC local write it
//!   rides along with (the paper's §2.5.1 claim that tree creation
//!   "minimizes the interruptions to the application").
//!
//! Before anything is timed, the three compare methods must agree on
//! the pair: ours and `Direct` report the brute-force difference
//! count, and `AllClose` (which reports only a verdict) says "within
//! bound" exactly when that count is zero.

use reprocmp_bench::{engine_for, fmt_dur, DivergenceSpec, DivergentPair, Recorder};
use reprocmp_core::{AllClose, CheckpointSource, Ctx, Direct};
use reprocmp_veloc::{Client, VelocConfig};
use std::time::{Duration, Instant};

/// Timed repetitions per row; the row reports their median.
const REPS: usize = 11;

/// Median wall time of `REPS` calls of `f`.
fn median(mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[REPS / 2]
}

fn record(
    rec: &mut Recorder,
    experiment: &str,
    params: &[(&str, String)],
    bytes: u64,
    t: Duration,
) {
    let gbps = bytes as f64 / t.as_secs_f64() / 1e9;
    let label: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "  {:<36} {:>9}  ({gbps:.2} GB/s)",
        label.join(" "),
        fmt_dur(t)
    );
    rec.push(experiment, params, "median_ms", t.as_secs_f64() * 1e3);
    rec.push(experiment, params, "gbps", gbps);
}

pub fn run() -> String {
    let mut rec = Recorder::new();

    println!("=== Compare: ours vs Direct vs AllClose (wall clock, 4 MiB in-memory pair) ===");
    let pair = DivergentPair::generate(1 << 20, DivergenceSpec::hacc_like(), 99);
    let both = 2 * pair.bytes();
    for eps in [1e-3f64, 1e-7] {
        let engine = engine_for(16 << 10, eps);
        let a = CheckpointSource::in_memory(&pair.run1, &engine).expect("valid pair");
        let b = CheckpointSource::in_memory(&pair.run2, &engine).expect("valid pair");
        let direct = Direct::new(eps).expect("valid bound");
        let allclose = AllClose::new(eps).expect("valid bound");
        let ctx = Ctx::default();

        let brute = pair.diffs_above(eps) as u64;
        let ours = engine.compare(&a, &b, &ctx).expect("compare");
        let plain = direct.compare(&a, &b, &ctx).expect("direct");
        let close = allclose.compare(&a, &b, &ctx).expect("allclose");
        assert_eq!(
            ours.stats.diff_count, brute,
            "ours disagrees at ε = {eps:e}"
        );
        assert_eq!(
            plain.stats.diff_count, brute,
            "Direct disagrees at ε = {eps:e}"
        );
        assert_eq!(
            close.within_bound,
            brute == 0,
            "AllClose disagrees at ε = {eps:e}"
        );

        let methods: [(&str, &dyn Fn()); 3] = [
            ("ours", &|| {
                std::hint::black_box(engine.compare(&a, &b, &ctx).expect("compare"));
            }),
            ("direct", &|| {
                std::hint::black_box(direct.compare(&a, &b, &ctx).expect("direct"));
            }),
            ("allclose", &|| {
                std::hint::black_box(allclose.compare(&a, &b, &ctx).expect("allclose"));
            }),
        ];
        for (method, f) in methods {
            let params = [("method", method.to_owned()), ("eps", format!("{eps:e}"))];
            record(&mut rec, "micro-compare", &params, both, median(f));
        }
    }

    println!("\n=== Capture: metadata hashing vs the VELOC local write (wall clock, 4 MiB) ===");
    let values = &pair.run1;
    let bytes = pair.bytes();
    for chunk in [4096usize, 64 << 10] {
        let engine = engine_for(chunk, 1e-5);
        let t = median(|| {
            std::hint::black_box(engine.build_metadata(std::hint::black_box(values)));
        });
        record(
            &mut rec,
            "micro-capture",
            &[
                ("step", "build_metadata".into()),
                ("chunk", chunk.to_string()),
            ],
            bytes,
            t,
        );
    }
    let dir = std::env::temp_dir().join(format!("reprocmp-micro-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let client = Client::new(VelocConfig::rooted_at(&dir)).expect("veloc client");
    let mut version = 0u64;
    let t = median(|| {
        version += 1;
        client
            .checkpoint("micro", version, &[("x", values.as_slice())])
            .expect("local checkpoint");
    });
    client.wait_all().expect("flushes");
    drop(client);
    std::fs::remove_dir_all(&dir).ok();
    record(
        &mut rec,
        "micro-capture",
        &[("step", "veloc_checkpoint_local".into())],
        bytes,
        t,
    );
    rec.into_json()
}
