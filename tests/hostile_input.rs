//! Hostile-input sweep over the workspace's one JSON decoder and the
//! typed decoders derived on top of it.
//!
//! Every committed wire frame, one `telemetry.jsonl` line, one report
//! golden and the `legacy_*.json` profiles are truncated at every byte
//! offset and hit with 256 seeded bit flips. Each mutated input goes
//! through `serde_json::from_str` and then through the typed decoder
//! that reads it in production — `Request::decode`,
//! `Response::decode`, `TelemetrySnapshot::from_value` or
//! `ProfileBaseline::parse`. Both must answer `Ok` or `Err`: a panic or
//! a stack overflow fails the test by killing it. Whatever tree the
//! JSON decoder builds must be no bigger than the text it was built
//! from, and no typed decoder may accept what is not JSON.

use reprocmp::obs::{ProfileBaseline, TelemetrySnapshot};
use reprocmp::server::{Request, Response};
use serde::Value;
use std::path::Path;

/// One line of a daemon's `telemetry.jsonl`, as `to_json_line` writes it.
const TELEMETRY_LINE: &str = r#"{"schema":1,"seq":7,"ts_ns":7000,"queue":{"capacity":64,"queued":3,"in_flight":5,"admitted":40,"refused":2,"shutting_down":false},"workers":[{"worker":0,"jobs_executed":21,"busy_ns":9000,"idle_ns":100},{"worker":1,"jobs_executed":19,"busy_ns":8000,"idle_ns":400}],"jobs":{"queued":3,"running":2,"done":33,"failed":2},"store":{"objects":8,"packs":2,"bytes_logical":1048576,"bytes_physical":700000,"bytes_deduped":300000,"bytes_garbage":0,"pack_file_bytes":710000},"journal":{"events_emitted":1000,"events_written":900,"events_dropped":100},"registry":{"counters":[{"name":"jobs.done","value":5}],"gauges":[{"name":"drr.lanes","value":-2}],"histograms":[{"name":"job.cost","histogram":{"count":4,"sum":906,"p50":2,"p95":1023,"p99":1023,"buckets":[{"low":1,"high":1,"count":1},{"low":2,"high":3,"count":2},{"low":512,"high":1023,"count":1}]}}]}}"#;

/// The typed decoder that reads one kind of document; `true` when it
/// accepts the bytes.
type Typed = fn(&[u8]) -> bool;

fn request(bytes: &[u8]) -> bool {
    Request::decode(bytes).is_ok()
}

fn response(bytes: &[u8]) -> bool {
    Response::decode(bytes).is_ok()
}

fn telemetry(bytes: &[u8]) -> bool {
    let Some(v) = std::str::from_utf8(bytes)
        .ok()
        .and_then(|text| serde_json::from_str(text).ok())
    else {
        return false;
    };
    TelemetrySnapshot::from_value(&v).is_ok()
}

fn profile(bytes: &[u8]) -> bool {
    std::str::from_utf8(bytes).is_ok_and(|text| ProfileBaseline::parse(text).is_ok())
}

fn corpus() -> Vec<(String, Vec<u8>, Typed)> {
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    let read = |name: &str| std::fs::read(goldens.join(name)).expect("golden");
    let mut docs: Vec<(String, Vec<u8>, Typed)> = vec![
        (
            "telemetry.jsonl line".to_owned(),
            TELEMETRY_LINE.as_bytes().to_vec(),
            telemetry,
        ),
        (
            "seed2_moderate.json".to_owned(),
            read("seed2_moderate.json"),
            profile,
        ),
    ];
    let mut names: Vec<String> = std::fs::read_dir(&goldens)
        .expect("goldens")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.starts_with("legacy_") && name.ends_with(".json"))
        .collect();
    names.sort();
    assert!(names.len() >= 6, "legacy goldens went missing");
    for name in names {
        let bytes = read(&name);
        docs.push((name, bytes, profile));
    }
    let mut wire: Vec<_> = std::fs::read_dir(goldens.join("wire"))
        .expect("wire goldens")
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    wire.sort();
    assert!(wire.len() >= 20, "wire goldens went missing");
    for path in wire {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let typed: Typed = if name.starts_with("req_") {
            request
        } else {
            response
        };
        docs.push((name, std::fs::read(&path).expect("wire golden"), typed));
    }
    docs
}

/// Values in the tree plus bytes in its strings and keys. Every value
/// and every string byte is spelled by at least one input byte, so a
/// tree over this bound was allocated from something other than input.
fn size(v: &Value) -> usize {
    1 + match v {
        Value::String(s) => s.len(),
        Value::Array(items) => items.iter().map(size).sum(),
        Value::Object(fields) => fields.iter().map(|(k, v)| k.len() + size(v)).sum(),
        _ => 0,
    }
}

/// Decodes `bytes` the way every reader does (UTF-8 check, then
/// `from_str`), then through `typed`; returns whether it parsed as
/// JSON.
fn decode(bytes: &[u8], typed: Typed, what: &str) -> bool {
    let typed_ok = typed(bytes);
    let Ok(text) = std::str::from_utf8(bytes) else {
        assert!(!typed_ok, "{what}: accepted bytes that are not UTF-8");
        return false;
    };
    match serde_json::from_str(text) {
        Ok(v) => {
            assert!(size(&v) <= text.len(), "{what}: output outgrew its input");
            true
        }
        Err(e) => {
            assert!(e.to_string().starts_with("invalid JSON at byte "));
            assert!(!typed_ok, "{what}: the typed decoder accepted bad JSON");
            false
        }
    }
}

#[test]
fn truncation_at_every_offset_is_an_error_never_a_panic() {
    for (name, bytes, typed) in corpus() {
        assert!(decode(&bytes, typed, &name), "{name} must parse whole");
        assert!(typed(&bytes), "{name} must decode whole");
        let end = String::from_utf8_lossy(&bytes).trim_end().len();
        for cut in 0..end {
            let what = format!("{name} cut at {cut}");
            assert!(!decode(&bytes[..cut], typed, &what), "{what} parsed");
        }
    }
}

#[test]
fn seeded_bit_flips_are_ok_or_err_never_a_panic() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        // xorshift64
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for (name, bytes, typed) in corpus() {
        let mut survived = 0;
        for _ in 0..256 {
            let bit = usize::try_from(next()).unwrap_or(usize::MAX) % (bytes.len() * 8);
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let what = format!("{name} with bit {bit} flipped");
            survived += usize::from(decode(&flipped, typed, &what));
        }
        // A flip inside a string or a digit still parses; one in the
        // punctuation does not. Both must occur or the sweep is blind.
        assert!(survived > 0 && survived < 256, "{name}: {survived}/256");
    }
}
