//! Raw payload sections: the frames two new peers exchange, and the hex
//! frames either one still exchanges with a peer that never offered
//! them.
//!
//! The four fixtures this file reads — `req_hello_raw.json`,
//! `resp_hello_ok_raw.json`, `req_ingest_raw.json` and
//! `resp_status_raw.json` under `tests/goldens/wire/` — are corpus
//! frames: written once, never regenerated. Today's encoders must
//! reproduce them byte for byte and today's decoders must read them. A
//! format change adds a fixture beside them. A raw frame's fixture is
//! its JSON header, every byte up to the NUL; the NUL and the section
//! that follow it on the wire are [`DEADBEEF`]'s four bytes (see
//! [`raw_frame`]). So every fixture stays a JSON document, which the
//! hex decoders and `tests/hostile_input.rs` read as such.

use std::path::PathBuf;
use std::sync::Arc;

use reprocmp::server::proto::{decode_request, decode_response, encode, hex_encode, read_frame};
use reprocmp::server::{
    pair, serve_connection, ChannelConn, Conn, JobState, Payloads, Request, Response, Server,
    ServerClient, ServerConfig, PROTOCOL_VERSION,
};
use serde::Value;

/// The payload every fixture carries: one raw `f32`.
const DEADBEEF: [u8; 4] = [0xde, 0xad, 0xbe, 0xef];

fn corpus(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens/wire")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("corpus frame {}: {e}", path.display()))
}

/// The whole frame whose header is the fixture `name`.
fn raw_frame(name: &str) -> Vec<u8> {
    [&corpus(name)[..], &[0], &DEADBEEF].concat()
}

fn pretty(msg: &impl serde::Serialize) -> Vec<u8> {
    let mut text = serde_json::to_string_pretty(msg).expect("encode");
    text.push('\n');
    text.into_bytes()
}

fn hello(raw_sections: bool) -> Request {
    Request::Hello {
        client: "rank-0".into(),
        protocol: PROTOCOL_VERSION,
        raw_sections,
    }
}

fn hello_ok(raw_sections: bool) -> Response {
    Response::HelloOk {
        server: "reprocmp-server".into(),
        protocol: PROTOCOL_VERSION,
        queue_capacity: 64,
        raw_sections,
    }
}

fn ingest(data: String) -> Request {
    Request::Ingest {
        name: "hacc.rho".into(),
        version: 12,
        chunk_bytes: 4096,
        data,
    }
}

fn recv(conn: &mut ChannelConn) -> Vec<u8> {
    conn.recv().expect("recv").expect("a frame")
}

/// A daemon on a fresh store, serving one in-process connection whose
/// other end `script` drives; the daemon is dropped after it.
fn with_daemon(tag: &str, script: impl FnOnce(&mut ChannelConn)) {
    let root = std::env::temp_dir().join(format!("reprocmp-sections-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let server = Arc::new(
        Server::start(ServerConfig {
            telemetry_cadence: std::time::Duration::ZERO,
            ..ServerConfig::rooted_at(&root)
        })
        .expect("daemon start"),
    );
    let (mut client_end, mut server_end) = pair();
    let handler = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || serve_connection(&server, &mut server_end))
    };
    script(&mut client_end);
    drop(client_end);
    handler.join().expect("handler").expect("served to EOF");
    drop(server);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn raw_hellos_match_the_corpus_and_decode_back() {
    assert_eq!(pretty(&hello(true)), corpus("req_hello_raw.json"));
    assert_eq!(pretty(&hello_ok(true)), corpus("resp_hello_ok_raw.json"));
    assert_eq!(
        Request::decode(&corpus("req_hello_raw.json")).unwrap(),
        hello(true)
    );
    assert_eq!(
        Response::decode(&corpus("resp_hello_ok_raw.json")).unwrap(),
        hello_ok(true)
    );
    // Without the field, a hello is the one pinned in `req_hello.json`.
    assert_eq!(
        Request::decode(&corpus("req_hello.json")).unwrap(),
        hello(false)
    );
}

#[test]
fn raw_frames_decode_to_their_header_and_section() {
    assert_eq!(
        decode_request(&raw_frame("req_ingest_raw.json"), Payloads::Raw).unwrap(),
        (ingest(String::new()), Some(&DEADBEEF[..]))
    );
    let status = Response::Status {
        job: 2,
        state: JobState::Done,
        result: Some(Value::Object(vec![
            ("name".to_owned(), Value::String("hacc.rho".to_owned())),
            ("version".to_owned(), Value::UInt(12)),
            ("bytes".to_owned(), Value::UInt(4)),
            ("data".to_owned(), Value::String(String::new())),
        ])),
        error: None,
    };
    assert_eq!(
        decode_response(&raw_frame("resp_status_raw.json"), Payloads::Raw).unwrap(),
        (status, Some(&DEADBEEF[..]))
    );
    // A session that agreed to no section reads none: these are not
    // JSON documents to it.
    assert!(decode_request(&raw_frame("req_ingest_raw.json"), Payloads::Hex).is_err());
    assert!(decode_response(&raw_frame("resp_status_raw.json"), Payloads::Hex).is_err());
}

/// The client side of a raw session: its hello offers sections and its
/// ingest is the corpus frame.
#[test]
fn a_new_client_sends_the_raw_ingest_frame_to_a_server_that_takes_sections() {
    let (client_end, mut server_end) = pair();
    let peer = std::thread::spawn(move || {
        let offered = recv(&mut server_end);
        assert_eq!(
            Request::decode(&offered).unwrap(),
            Request::Hello {
                client: "rank-0".into(),
                protocol: PROTOCOL_VERSION,
                raw_sections: true,
            }
        );
        server_end
            .send(&corpus("resp_hello_ok_raw.json"))
            .expect("hello_ok");
        let frame = recv(&mut server_end);
        server_end
            .send(&encode(&Response::Accepted { job: 1 }))
            .expect("accepted");
        frame
    });
    let mut client = ServerClient::over(Box::new(client_end), "rank-0").expect("hello");
    assert_eq!(client.ingest("hacc.rho", 12, 4096, &DEADBEEF).unwrap(), 1);
    assert_eq!(
        peer.join().expect("scripted server"),
        raw_frame("req_ingest_raw.json")
    );
}

/// The server side of a raw session: it takes the corpus ingest frame
/// and answers the materialize with the corpus status frame.
#[test]
fn a_new_server_takes_the_raw_ingest_and_answers_with_the_raw_status_frame() {
    with_daemon("server", |conn| {
        conn.send(&corpus("req_hello_raw.json")).unwrap();
        assert_eq!(
            Response::decode(&recv(conn)).unwrap(),
            hello_ok(true),
            "the server takes the offer"
        );
        conn.send(&raw_frame("req_ingest_raw.json")).unwrap();
        assert_eq!(
            Response::decode(&recv(conn)).unwrap(),
            Response::Accepted { job: 1 }
        );
        conn.send(&encode(&Request::Status { job: 1, wait: true }))
            .unwrap();
        let frame = recv(conn);
        let (answer, section) = decode_response(&frame, Payloads::Raw).unwrap();
        assert!(
            matches!(
                answer,
                Response::Status {
                    state: JobState::Done,
                    ..
                }
            ),
            "{answer:?}"
        );
        assert_eq!(section, None, "an ingest's answer carries no section");
        conn.send(&encode(&Request::Materialize {
            name: "hacc.rho".into(),
            version: 12,
        }))
        .unwrap();
        assert_eq!(
            Response::decode(&recv(conn)).unwrap(),
            Response::Accepted { job: 2 }
        );
        conn.send(&encode(&Request::Status { job: 2, wait: true }))
            .unwrap();
        assert_eq!(recv(conn), raw_frame("resp_status_raw.json"));
    });
}

/// A new client facing a server that answers today's `hello_ok` — one
/// that never heard of raw sections — sends today's hex frame.
#[test]
fn a_new_client_sends_hex_to_a_server_that_does_not_offer_sections() {
    let (client_end, mut server_end) = pair();
    let peer = std::thread::spawn(move || {
        recv(&mut server_end);
        server_end
            .send(&corpus("resp_hello_ok.json"))
            .expect("hello_ok");
        let frame = recv(&mut server_end);
        server_end
            .send(&encode(&Response::Accepted { job: 7 }))
            .expect("accepted");
        frame
    });
    let mut client = ServerClient::over(Box::new(client_end), "rank-0").expect("hello");
    assert_eq!(client.ingest("hacc.rho", 12, 4096, &DEADBEEF).unwrap(), 7);
    assert_eq!(
        peer.join().expect("scripted server"),
        encode(&ingest(hex_encode(&DEADBEEF))),
        "byte for byte the hex frame"
    );
}

/// A client that never offers raw sections — today's frames, sent by
/// hand — gets today's answers: a `hello_ok` without the field and a
/// materialize answered in hex.
#[test]
fn hex_frames_sent_to_a_new_server_get_hex_answers() {
    let data: Vec<u8> = (0..2048u32)
        .flat_map(|i| (i as f32 * 0.5).to_le_bytes())
        .collect();
    with_daemon("hex", |conn| {
        conn.send(&corpus("req_hello.json")).unwrap();
        assert_eq!(
            recv(conn),
            br#"{"type":"hello_ok","server":"reprocmp-server","protocol":1,"queue_capacity":64}"#,
            "today's hello_ok, byte for byte"
        );
        conn.send(&encode(&ingest(hex_encode(&data)))).unwrap();
        assert_eq!(
            Response::decode(&recv(conn)).unwrap(),
            Response::Accepted { job: 1 }
        );
        conn.send(&encode(&Request::Status { job: 1, wait: true }))
            .unwrap();
        assert!(matches!(
            Response::decode(&recv(conn)).unwrap(),
            Response::Status {
                state: JobState::Done,
                ..
            }
        ));
        conn.send(&encode(&Request::Materialize {
            name: "hacc.rho".into(),
            version: 12,
        }))
        .unwrap();
        assert_eq!(
            Response::decode(&recv(conn)).unwrap(),
            Response::Accepted { job: 2 }
        );
        conn.send(&encode(&Request::Status { job: 2, wait: true }))
            .unwrap();
        let expected = Response::Status {
            job: 2,
            state: JobState::Done,
            result: Some(Value::Object(vec![
                ("name".to_owned(), Value::String("hacc.rho".to_owned())),
                ("version".to_owned(), Value::UInt(12)),
                ("bytes".to_owned(), Value::UInt(data.len() as u64)),
                ("data".to_owned(), Value::String(hex_encode(&data))),
            ])),
            error: None,
        };
        assert_eq!(
            recv(conn),
            encode(&expected),
            "the hex answer, byte for byte"
        );
    });
}

/// Two new peers: the status's raw accessor holds the materialized
/// bytes, and its result document still carries them as hex.
#[test]
fn a_raw_status_hands_over_the_bytes_and_the_hex_document() {
    let data: Vec<u8> = (0..16384u32)
        .flat_map(|i| (i as f32).sin().to_le_bytes())
        .collect();
    let root = std::env::temp_dir().join(format!("reprocmp-sections-raw-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let server = Server::start(ServerConfig {
        telemetry_cadence: std::time::Duration::ZERO,
        ..ServerConfig::rooted_at(&root)
    })
    .expect("daemon start");
    let (client_end, mut server_end) = pair();
    std::thread::scope(|s| {
        s.spawn(|| serve_connection(&server, &mut server_end));
        let mut client = ServerClient::over(Box::new(client_end), "c").expect("hello");
        let job = client.ingest("obj", 1, 4096, &data).expect("ingest");
        let ingested = client.wait(job).expect("wait");
        assert_eq!(ingested.state, JobState::Done);
        assert_eq!(ingested.payload(), None);

        let job = client.materialize("obj", 1).expect("materialize");
        let status = client.wait(job).expect("wait");
        assert_eq!(status.payload(), Some(&data[..]));
        let hex = status.result.as_ref().and_then(|r| r.get("data"));
        assert_eq!(hex.and_then(Value::as_str), Some(&*hex_encode(&data)));
        // The daemon's own view is the same document.
        assert_eq!(
            server.status(job).and_then(|s| s.result),
            status.result.map(Arc::new)
        );
    });
    drop(server);
    std::fs::remove_dir_all(&root).ok();
}

/// Framing is unchanged: a raw frame is one length-prefixed frame.
#[test]
fn a_raw_frame_is_one_length_prefixed_frame() {
    let frame = raw_frame("req_ingest_raw.json");
    let mut wire = (frame.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&frame);
    assert_eq!(read_frame(&mut &wire[..]).unwrap(), Some(frame));
}
