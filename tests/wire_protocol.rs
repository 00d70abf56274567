//! Golden lock-in for the `reprocmp-server` wire protocol.
//!
//! Every request and response verb has a checked-in fixture under
//! `tests/goldens/wire/` pinning its exact JSON encoding, the same way
//! `tests/goldens/legacy_pre_*.json` pin the report schema. Three
//! guarantees are enforced:
//!
//! 1. **Encodings are frozen** — today's encoder reproduces each
//!    fixture byte-for-byte (regenerate after an intentional change
//!    with `UPDATE_GOLDEN=1 cargo test --test wire_protocol` and
//!    review the diff);
//! 2. **Fixtures stay decodable** — every pinned frame decodes back to
//!    the exact message it encodes, so a peer built today can always
//!    read traffic from a peer built at this commit;
//! 3. **Evolution is additive** — the same fixtures *with unknown
//!    fields injected at every level* still decode to the identical
//!    message, so a future server can add fields without breaking this
//!    build (and the checked-in `future_hello_ok` fixture proves it
//!    against a hand-written frame from that imagined future).

use std::path::PathBuf;
use std::sync::Arc;

use reprocmp::server::{
    Conn, JobState, ObjectRef, ProtoError, Request, Response, Server, ServerClient, ServerConfig,
    TcpConn, TcpTransport, PROTOCOL_VERSION,
};
use serde::{Serialize, Value};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens/wire")
        .join(format!("{name}.json"))
}

/// Every request verb, one canonical instance each.
fn canonical_requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "req_hello",
            Request::Hello {
                client: "rank-0".into(),
                protocol: PROTOCOL_VERSION,
                raw_sections: false,
            },
        ),
        (
            "req_ingest",
            Request::Ingest {
                name: "hacc.rho".into(),
                version: 12,
                chunk_bytes: 4096,
                data: "deadbeef".into(),
            },
        ),
        (
            "req_compare",
            Request::Compare {
                left: ObjectRef {
                    name: "hacc.rho".into(),
                    version: 12,
                },
                right: ObjectRef {
                    name: "hacc.rho".into(),
                    version: 13,
                },
            },
        ),
        (
            "req_compare_many",
            Request::CompareMany {
                baseline: ObjectRef {
                    name: "baseline".into(),
                    version: 1,
                },
                runs: vec![
                    ObjectRef {
                        name: "run_a".into(),
                        version: 1,
                    },
                    ObjectRef {
                        name: "run_b".into(),
                        version: 1,
                    },
                ],
            },
        ),
        (
            "req_materialize",
            Request::Materialize {
                name: "hacc.rho".into(),
                version: 12,
            },
        ),
        (
            "req_status",
            Request::Status {
                job: 42,
                wait: true,
            },
        ),
        ("req_watch", Request::Watch { job: 42 }),
        ("req_metrics", Request::Metrics),
        (
            "req_subscribe_telemetry",
            Request::SubscribeTelemetry { max: 8 },
        ),
        ("req_shutdown", Request::Shutdown),
    ]
}

/// Every response verb, one canonical instance each.
fn canonical_responses() -> Vec<(&'static str, Response)> {
    vec![
        (
            "resp_hello_ok",
            Response::HelloOk {
                server: "reprocmp-server".into(),
                protocol: PROTOCOL_VERSION,
                queue_capacity: 64,
                raw_sections: false,
            },
        ),
        ("resp_accepted", Response::Accepted { job: 42 }),
        (
            "resp_rejected",
            Response::Rejected {
                reason: "queue full: 64/64 jobs in flight; retry later".into(),
            },
        ),
        (
            "resp_status",
            Response::Status {
                job: 42,
                state: JobState::Done,
                result: Some(Value::Object(vec![
                    ("chunk_refs".to_owned(), Value::UInt(16)),
                    ("bytes_logical".to_owned(), Value::UInt(65536)),
                ])),
                error: None,
            },
        ),
        (
            "resp_event",
            Response::Event {
                job: 42,
                seq: 7,
                ts_ns: 20000,
                lane: "run_a.uring.sq".into(),
                kind: "io_submit".into(),
            },
        ),
        (
            "resp_done",
            Response::Done {
                job: 42,
                state: JobState::Done,
                events_emitted: 25,
                events_written: 25,
                events_dropped: 0,
            },
        ),
        (
            "resp_error",
            Response::Error {
                message: "unknown job 404".into(),
            },
        ),
        (
            "resp_telemetry",
            Response::Telemetry {
                snapshot: Value::Object(vec![
                    ("schema".to_owned(), Value::UInt(1)),
                    ("seq".to_owned(), Value::UInt(12)),
                    ("ts_ns".to_owned(), Value::UInt(120_000_000)),
                ]),
            },
        ),
        (
            "resp_telemetry_end",
            Response::TelemetryEnd { snapshots: 12 },
        ),
    ]
}

fn pretty(msg: &impl Serialize) -> String {
    let mut text = serde_json::to_string_pretty(msg).expect("encode");
    text.push('\n');
    text
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("wire dir")).expect("mkdir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "wire golden `{name}` drifted (UPDATE_GOLDEN=1 regenerates after an intentional change)"
    );
}

#[test]
fn request_encodings_match_the_pinned_goldens() {
    for (name, req) in canonical_requests() {
        check_golden(name, &pretty(&req));
    }
}

#[test]
fn response_encodings_match_the_pinned_goldens() {
    for (name, resp) in canonical_responses() {
        check_golden(name, &pretty(&resp));
    }
}

#[test]
fn pinned_request_fixtures_decode_to_the_exact_message() {
    for (name, req) in canonical_requests() {
        let text = std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("golden {name}: {e} (UPDATE_GOLDEN=1 to create)"));
        let decoded = Request::decode(text.as_bytes())
            .unwrap_or_else(|e| panic!("golden {name} no longer decodes: {e}"));
        assert_eq!(decoded, req, "golden {name} decodes to a different message");
    }
}

#[test]
fn pinned_response_fixtures_decode_to_the_exact_message() {
    for (name, resp) in canonical_responses() {
        let text = std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("golden {name}: {e} (UPDATE_GOLDEN=1 to create)"));
        let decoded = Response::decode(text.as_bytes())
            .unwrap_or_else(|e| panic!("golden {name} no longer decodes: {e}"));
        assert_eq!(
            decoded, resp,
            "golden {name} decodes to a different message"
        );
    }
}

/// Injects an unknown field after every `{` in a JSON document —
/// simulating a future protocol revision that added fields at every
/// nesting level.
fn inject_unknown_fields(json: &str) -> String {
    let mut out = String::with_capacity(json.len() * 2);
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        out.push(c);
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => out.push_str(r#""added_in_v99":{"nested":[1,"x",null]},"#),
            _ => {}
        }
    }
    out
}

/// The additive-evolution guarantee, mirroring the `legacy_pre_*`
/// report tests from the other direction: frames from a *newer* peer
/// (every object carrying fields this build has never heard of) must
/// decode to exactly the message the known fields describe.
#[test]
fn unknown_fields_at_every_level_decode_identically() {
    for (name, req) in canonical_requests() {
        let text = std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("golden {name}: {e}"));
        let futuristic = inject_unknown_fields(&text);
        let decoded = Request::decode(futuristic.as_bytes())
            .unwrap_or_else(|e| panic!("{name} with unknown fields failed: {e}"));
        assert_eq!(decoded, req, "{name}: unknown fields changed the decode");
    }
    for (name, resp) in canonical_responses() {
        // Status and Telemetry carry free-form documents (`result`,
        // `snapshot`) whose own fields are opaque payload, not schema
        // — injecting there changes the message by definition.
        if name == "resp_status" || name == "resp_telemetry" {
            continue;
        }
        let text = std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("golden {name}: {e}"));
        let futuristic = inject_unknown_fields(&text);
        let decoded = Response::decode(futuristic.as_bytes())
            .unwrap_or_else(|e| panic!("{name} with unknown fields failed: {e}"));
        assert_eq!(decoded, resp, "{name}: unknown fields changed the decode");
    }
}

/// A hand-written frame "from the future": protocol 99, extra fields
/// everywhere. Checked in verbatim (never regenerated) so this build
/// is pinned forever to accepting it.
#[test]
fn future_hello_fixture_remains_acceptable() {
    let text = std::fs::read_to_string(golden_path("future_hello_ok"))
        .expect("the future_hello_ok fixture is checked in by hand");
    let decoded = Response::decode(text.as_bytes()).expect("future frame must decode");
    match decoded {
        Response::HelloOk {
            server,
            protocol,
            queue_capacity,
            ..
        } => {
            assert_eq!(server, "reprocmp-server/9.9");
            assert_eq!(protocol, 99, "future revisions advertise themselves");
            assert_eq!(queue_capacity, 4096);
        }
        other => panic!("future hello decoded as {other:?}"),
    }
}

/// The encoder side of determinism: encoding is a pure function of the
/// message (two encodes are byte-identical), which is what makes the
/// pinned fixtures meaningful.
#[test]
fn encoding_is_deterministic() {
    for (_, req) in canonical_requests() {
        assert_eq!(pretty(&req), pretty(&req));
    }
    for (_, resp) in canonical_responses() {
        assert_eq!(pretty(&resp), pretty(&resp));
    }
}

/// A frame of nothing but `[` (or `{"a":`) is refused as bad JSON at
/// the decoder's depth bound; recursing into it instead overflows the
/// stack long before the 64 MiB frame cap says no.
#[test]
fn deeply_nested_frames_are_json_errors() {
    for open in ["[", "{\"a\":"] {
        let bomb = open.repeat(200_000);
        for decoded in [
            Request::decode(bomb.as_bytes()).map(|_| ()),
            Response::decode(bomb.as_bytes()).map(|_| ()),
        ] {
            match decoded {
                Err(ProtoError::Json(e)) => {
                    assert!(e.to_string().ends_with("nesting deeper than 128 levels"));
                }
                other => panic!("depth bomb decoded as {other:?}"),
            }
        }
    }
}

/// The same frame over loopback TCP costs its sender one `error`
/// response — the daemon keeps serving that connection and every other.
#[test]
fn daemon_answers_a_depth_bomb_with_an_error_frame_and_keeps_serving() {
    let root = std::env::temp_dir().join(format!("reprocmp-wire-bomb-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let server = Arc::new(Server::start(ServerConfig::rooted_at(&root)).expect("daemon start"));
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
    let addr = transport.addr();
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || transport.run(&server))
    };

    let mut hostile = TcpConn::connect(addr).expect("connect");
    hostile
        .send("[".repeat(200_000).as_bytes())
        .expect("send bomb");
    let answer = hostile.recv().expect("recv").expect("an answer frame");
    assert_eq!(
        Response::decode(&answer).expect("answer decodes"),
        Response::Error {
            message: "wire frame is not JSON: invalid JSON at byte 128: \
                      nesting deeper than 128 levels"
                .to_owned(),
        }
    );
    hostile
        .send(&reprocmp::server::proto::encode(&Request::Metrics))
        .expect("same connection still open");
    let answer = hostile.recv().expect("recv").expect("an answer frame");
    assert!(matches!(
        Response::decode(&answer),
        Ok(Response::Telemetry { .. })
    ));

    let mut client =
        ServerClient::connect(addr, "bystander").expect("hello on a second connection");
    assert_eq!(client.server_info().protocol, PROTOCOL_VERSION);
    let data: Vec<u8> = (0..4096u32)
        .flat_map(|i| (i as f32).to_le_bytes())
        .collect();
    let job = client.ingest("obj", 1, 4096, &data).expect("submit");
    assert_eq!(client.wait(job).expect("status").state, JobState::Done);

    client.shutdown_server().expect("shutdown ack");
    accept
        .join()
        .expect("accept thread")
        .expect("transport run returns cleanly");
    std::fs::remove_dir_all(&root).ok();
}
