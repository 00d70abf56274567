//! The wire protocol: length-prefixed JSON frames and tagged
//! request/response objects, declared once with their codecs derived.
//!
//! # Framing
//!
//! Every message is one frame: a little-endian `u32` byte length
//! followed by that many bytes of UTF-8 JSON. [`write_frame`] /
//! [`read_frame`] implement it over any `Write`/`Read`.
//!
//! # Raw sections
//!
//! Payload bytes travel as lowercase hex in a `"data"` string, which
//! every peer reads. Two peers that both set `raw_sections` in
//! `hello` / `hello_ok` send them raw instead ([`Payloads::Raw`]): a
//! frame is then the JSON header, one NUL byte, and the section. JSON
//! text never holds a NUL (inside a string a control character is
//! escaped), so the first one ends the header. The header's `"data"`
//! is `""` and its top-level `"raw_bytes"` declares the section's
//! length, which must equal what follows the NUL. Only a client's
//! `ingest` and a server's `status` answer with a result document may
//! carry one; [`decode_request`] / [`decode_response`] refuse a section
//! anywhere else, and a hex session decodes every frame as JSON alone.
//!
//! # Schema evolution
//!
//! Objects are tagged with a `"type"` field, the variant's name in
//! snake case. Decoders read only the fields they know and ignore
//! everything else, so the protocol can evolve **additively**: new
//! fields and new message types never break an old peer's ability to
//! parse what it understands. The committed
//! fixtures under `tests/goldens/wire/` pin today's encodings the same
//! way the `legacy_pre_*.json` report fixtures pin the report schema.

use serde::{Deserialize, Serialize, Tag, Value};

/// Protocol revision spoken by this build. Bumped only for additive
/// changes; peers accept any `protocol >= 1` hello.
pub const PROTOCOL_VERSION: u64 = 1;

/// Frames larger than this are rejected as corrupt rather than
/// allocated (64 MiB — far above any legitimate message).
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// A wire-level failure: framing, JSON, or schema.
#[derive(Debug)]
pub enum ProtoError {
    /// Socket/pipe failure.
    Io(std::io::Error),
    /// The frame payload was not valid JSON.
    Json(serde_json::Error),
    /// The JSON did not shape up as any known message.
    Schema(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "wire i/o failure: {e}"),
            ProtoError::Json(e) => write!(f, "wire frame is not JSON: {e}"),
            ProtoError::Schema(msg) => write!(f, "unintelligible message: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            ProtoError::Json(e) => Some(e),
            ProtoError::Schema(_) => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Writes one length-prefixed frame with a single `write`: the length
/// and the payload leave in one buffer, so a frame is never split
/// across two segments with the peer's delayed ACK between them.
///
/// One buffer and not `write_vectored`: on a socket that is
/// `writev(2)`, which the kernel accounts as file output (`wchar` in
/// `/proc/self/io`) where `send(2)` is not — every payload byte would
/// then count as a byte the store wrote.
///
/// # Errors
///
/// Underlying write failures.
pub fn write_frame(w: &mut dyn std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    write_frame_with(w, &mut Vec::new(), payload, &[])
}

/// [`write_frame`] of the payload `head` followed by `tail`, assembled
/// in `scratch`, which a connection keeps from one frame to the next
/// (see [`recycle`]): a raw section is copied once, into the frame.
///
/// # Errors
///
/// Underlying write failures.
pub(crate) fn write_frame_with(
    w: &mut dyn std::io::Write,
    scratch: &mut Vec<u8>,
    head: &[u8],
    tail: &[u8],
) -> std::io::Result<()> {
    let len = u32::try_from(head.len() + tail.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    scratch.clear();
    scratch.reserve(4 + head.len() + tail.len());
    scratch.extend_from_slice(&len.to_le_bytes());
    scratch.extend_from_slice(head);
    scratch.extend_from_slice(tail);
    let sent = w.write_all(scratch).and_then(|()| w.flush());
    recycle(scratch);
    sent
}

/// The largest frame buffer a connection keeps between frames. A 1 MiB
/// object travels as 2 MiB of hex, and a buffer that grew by doubling
/// to hold it has 4 MiB.
const SCRATCH_RETAIN_BYTES: usize = 4 << 20;

/// Empties a connection's frame buffer for its next frame, keeping the
/// memory unless an unusually large frame grew it past
/// [`SCRATCH_RETAIN_BYTES`]. Frames of one size class then reuse one
/// allocation: freeing and reallocating megabytes per frame costs a
/// page fault per 4 KiB each time the allocator hands them back to the
/// kernel, which it does or does not do depending on heap layout.
pub(crate) fn recycle(buf: &mut Vec<u8>) {
    if buf.capacity() > SCRATCH_RETAIN_BYTES {
        *buf = Vec::new();
    } else {
        buf.clear();
    }
}

/// The most [`read_frame`] allocates before payload bytes arrive; the
/// buffer then grows with what the peer actually sends.
const READ_FRAME_FIRST_ALLOC: usize = 256 << 10;

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary.
///
/// The declared length bounds the read, never the allocation: a peer
/// that announces a large frame and stalls holds at most 256 KiB of
/// this process.
///
/// # Errors
///
/// Underlying read failures, EOF mid-frame, or an implausible length
/// prefix (> [`MAX_FRAME_BYTES`]).
pub fn read_frame(r: &mut dyn std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// [`read_frame`] into `payload`, replacing its contents and reusing
/// its memory; `Ok(false)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// As [`read_frame`].
pub(crate) fn read_frame_into(
    r: &mut dyn std::io::Read,
    payload: &mut Vec<u8>,
) -> std::io::Result<bool> {
    use std::io::Read as _;
    payload.clear();
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_bytes[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(mid_frame_eof());
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let len = len as usize;
    payload.reserve(len.min(READ_FRAME_FIRST_ALLOC));
    r.take(len as u64).read_to_end(payload)?;
    if payload.len() < len {
        return Err(mid_frame_eof());
    }
    Ok(true)
}

fn mid_frame_eof() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "connection closed mid-frame",
    )
}

/// Lowercase-hex encoding for payload bytes on the wire.
#[must_use]
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = vec![0u8; bytes.len() * 2];
    hex_fill(&mut out, bytes);
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Appends [`hex_encode`]'s digits for `bytes` to `out`.
fn hex_encode_into(out: &mut Vec<u8>, bytes: &[u8]) {
    let start = out.len();
    out.resize(start + bytes.len() * 2, 0);
    hex_fill(&mut out[start..], bytes);
}

fn hex_fill(digits: &mut [u8], bytes: &[u8]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for (pair, b) in digits.chunks_exact_mut(2).zip(bytes) {
        pair[0] = DIGITS[usize::from(b >> 4)];
        pair[1] = DIGITS[usize::from(b & 0xf)];
    }
}

/// Marks a byte that is not a hex digit in [`HEX_VALUE`]. Digit values
/// stay below 16, so a high bit in an OR of lookups means one of them
/// was this.
const NOT_HEX: u8 = 0xff;

/// Byte → nibble value, [`NOT_HEX`] for everything outside
/// `[0-9a-fA-F]`.
const HEX_VALUE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 10 {
        table[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        table[b'a' as usize + i] = 10 + i as u8;
        table[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    table
};

/// Decodes [`hex_encode`]'s output.
///
/// # Errors
///
/// A human-readable message for odd length or non-hex digits.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("hex payload has odd length {}", s.len()));
    }
    // Every lookup is OR-ed into `seen`, so the loop has no branch and
    // validity is one test per buffer.
    let mut seen = 0u8;
    let out: Vec<u8> = s
        .as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let hi = HEX_VALUE[usize::from(pair[0])];
            let lo = HEX_VALUE[usize::from(pair[1])];
            seen |= hi | lo;
            (hi << 4) | lo
        })
        .collect();
    if seen & 0xf0 != 0 {
        let bad = s
            .bytes()
            .find(|&b| HEX_VALUE[usize::from(b)] == NOT_HEX)
            .expect("a lookup set a high bit");
        return Err(format!("invalid hex digit {:?}", bad as char));
    }
    Ok(out)
}

/// [`hex_decode`] of a string the caller is done with, into the
/// string's own memory: byte `i` lands where digits `2i` and `2i + 1`
/// were read, so an ingest frame's payload costs the connection one
/// allocation, not one for the digits and one for the bytes.
///
/// # Errors
///
/// As [`hex_decode`], with the same messages.
pub(crate) fn hex_decode_owned(s: String) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("hex payload has odd length {}", s.len()));
    }
    // A block's digits are copied out before its bytes are written, so
    // the writes never run over digits still to be read, and a bad
    // digit is reported from the copy.
    const BLOCK: usize = 32;
    let mut bytes = s.into_bytes();
    let decoded_len = bytes.len() / 2;
    let mut digits = [0u8; 2 * BLOCK];
    let mut done = 0;
    while done < decoded_len {
        let block = BLOCK.min(decoded_len - done);
        let digits = &mut digits[..2 * block];
        digits.copy_from_slice(&bytes[2 * done..2 * (done + block)]);
        let mut seen = 0u8;
        for (byte, pair) in bytes[done..done + block]
            .iter_mut()
            .zip(digits.chunks_exact(2))
        {
            let hi = HEX_VALUE[usize::from(pair[0])];
            let lo = HEX_VALUE[usize::from(pair[1])];
            seen |= hi | lo;
            *byte = (hi << 4) | lo;
        }
        if seen & 0xf0 != 0 {
            let bad = digits
                .iter()
                .find(|&&b| HEX_VALUE[usize::from(b)] == NOT_HEX)
                .expect("a lookup set a high bit");
            return Err(format!("invalid hex digit {:?}", *bad as char));
        }
        done += block;
    }
    bytes.truncate(decoded_len);
    bytes.shrink_to_fit();
    Ok(bytes)
}

/// A stored object reference: `name@version` (owned by the operation
/// layer; re-exported so wire callers keep their import).
pub use reprocmp_core::ops::ObjectRef;

/// Everything a client can ask the daemon. Every field is required
/// on decode unless it says what it defaults to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Request {
    /// Session opener; the server answers with [`Response::HelloOk`].
    Hello {
        /// Client identity used for fair queuing.
        client: String,
        /// Protocol revision the client speaks; absent, this build's.
        #[serde(default = "protocol_version")]
        protocol: u64,
        /// Whether the client sends and reads raw payload sections
        /// (default `false`: hex only); omitted when `false`.
        #[serde(default, skip_serializing_if = "is_false")]
        raw_sections: bool,
    },
    /// Store a checkpoint payload as `name@version` (job-queued).
    Ingest {
        /// Checkpoint name.
        name: String,
        /// Checkpoint version.
        version: u64,
        /// Store chunk size for this object.
        chunk_bytes: u64,
        /// Raw payload bytes, hex-encoded; `""` when they travel as the
        /// frame's raw section.
        data: String,
    },
    /// Compare two stored objects (job-queued).
    Compare {
        /// Left-hand object.
        left: ObjectRef,
        /// Right-hand object.
        right: ObjectRef,
    },
    /// Compare many runs against one baseline as a scheduled batch
    /// (job-queued).
    CompareMany {
        /// The shared baseline.
        baseline: ObjectRef,
        /// The runs, each compared against the baseline.
        runs: Vec<ObjectRef>,
    },
    /// Reconstruct a stored object's bytes (job-queued).
    Materialize {
        /// Checkpoint name.
        name: String,
        /// Checkpoint version.
        version: u64,
    },
    /// Query a job. With `wait`, the server answers only once the job
    /// is terminal.
    Status {
        /// Job id from [`Response::Accepted`].
        job: u64,
        /// Block until the job completes or fails (default `false`).
        #[serde(default)]
        wait: bool,
    },
    /// Stream a finished job's flight-recorder events
    /// ([`Response::Event`] frames) followed by [`Response::Done`].
    Watch {
        /// Job id from [`Response::Accepted`].
        job: u64,
    },
    /// Take one telemetry sample right now and answer with a
    /// [`Response::Telemetry`] frame (rendering — JSON or Prometheus
    /// text — is the client's concern).
    Metrics,
    /// Stream telemetry snapshots — the retained history first, then
    /// live samples as they land — as [`Response::Telemetry`] frames
    /// followed by a terminal [`Response::TelemetryEnd`].
    SubscribeTelemetry {
        /// Stop after this many snapshots; `0` (the default) streams
        /// until the daemon shuts down.
        #[serde(default)]
        max: u64,
    },
    /// Ask the daemon to drain in-flight jobs and exit.
    Shutdown,
}

impl Request {
    /// The `"type"` tag this request serializes under.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        self.tag()
    }

    /// Decodes a request frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on bad JSON or an unknown/missing shape.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        decode(payload)
    }
}

fn protocol_version() -> u64 {
    PROTOCOL_VERSION
}

fn is_false(flag: &bool) -> bool {
    !*flag
}

/// Lifecycle of a queued job as reported on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the result is attached.
    Done,
    /// Failed; the error message is attached.
    Failed,
}

impl JobState {
    /// Wire spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        self.tag()
    }

    /// Whether the job will never change state again.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

/// Everything the daemon can answer. Every field is required on
/// decode unless it says what it defaults to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Response {
    /// Session accepted.
    HelloOk {
        /// Server software name.
        server: String,
        /// Protocol revision the server speaks.
        protocol: u64,
        /// Admission-control bound on in-flight jobs (default 0).
        #[serde(default)]
        queue_capacity: u64,
        /// Whether this session's payloads travel as raw sections: the
        /// client offered them and the server takes them (default
        /// `false`); omitted when `false`.
        #[serde(default, skip_serializing_if = "is_false")]
        raw_sections: bool,
    },
    /// The job was admitted to the queue.
    Accepted {
        /// Its id, for `status`/`watch`.
        job: u64,
    },
    /// Admission control refused the job — backpressure, retry later.
    Rejected {
        /// Why (queue full, shutting down, …).
        reason: String,
    },
    /// A job's current state; `result`/`error` attached when terminal.
    Status {
        /// Job id.
        job: u64,
        /// Current lifecycle state.
        state: JobState,
        /// The job's result document (ingest stats, compare report,
        /// …) when `state` is `done`; omitted when `None`.
        #[serde(skip_serializing_if = "Option::is_none")]
        result: Option<Value>,
        /// The failure message when `state` is `failed`; omitted when
        /// `None`.
        #[serde(skip_serializing_if = "Option::is_none")]
        error: Option<String>,
    },
    /// One flight-recorder event from a watched job's execution.
    Event {
        /// Job id.
        job: u64,
        /// Event sequence number within the job's journal.
        seq: u64,
        /// Event timestamp on the job's deterministic timeline, ns.
        ts_ns: u64,
        /// Journal lane.
        lane: String,
        /// Event `type` tag (e.g. `chunk_read`, `kernel`).
        kind: String,
    },
    /// Terminal frame of a `watch` stream.
    Done {
        /// Job id.
        job: u64,
        /// Final state ([`JobState::Done`] or [`JobState::Failed`]).
        state: JobState,
        /// Journal ledger of the job's execution:
        /// `emitted == written + dropped`, always balanced. The three
        /// counts default to 0.
        #[serde(default)]
        events_emitted: u64,
        /// Events retained and streamed.
        #[serde(default)]
        events_written: u64,
        /// Events evicted under the capacity bound.
        #[serde(default)]
        events_dropped: u64,
    },
    /// One telemetry snapshot — the answer to `metrics` and each
    /// element of a `subscribe_telemetry` stream.
    Telemetry {
        /// The serialized `TelemetrySnapshot` document (kept as a
        /// value so old clients pass unknown fields through).
        snapshot: Value,
    },
    /// Terminal frame of a `subscribe_telemetry` stream.
    TelemetryEnd {
        /// Snapshots streamed before the stream ended (default 0).
        #[serde(default)]
        snapshots: u64,
    },
    /// A request-level failure (unknown job, bad payload, …).
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Response {
    /// The `"type"` tag this response serializes under.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        self.tag()
    }

    /// Decodes a response frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on bad JSON or an unknown/missing shape.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        decode(payload)
    }
}

/// How one session's payload-carrying frames travel, as agreed in
/// `hello`: see the module documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Payloads {
    /// Hex digits in the `"data"` string; what a peer that did not
    /// offer `raw_sections` sends and reads.
    #[default]
    Hex,
    /// A raw section after the JSON header and a NUL byte.
    Raw,
}

impl Payloads {
    /// What a hello's `raw_sections` flag agrees to.
    #[must_use]
    pub fn agreed(raw_sections: bool) -> Self {
        if raw_sections {
            Payloads::Raw
        } else {
            Payloads::Hex
        }
    }
}

/// Ends a frame's JSON header when a raw section follows it.
const SECTION_MARK: u8 = 0;

/// The header field declaring the raw section's length.
const RAW_BYTES: &str = "raw_bytes";

/// Writes the frame of an `ingest` of `data` into `out` and returns
/// what must follow it on the wire. Under [`Payloads::Hex`] that is
/// nothing: `out` is byte for byte what [`encode`] gives for
/// `Request::Ingest { data: hex_encode(data), .. }`, the digits written
/// where they travel from. Under [`Payloads::Raw`], `out` is the header
/// and `data` itself is the section.
pub(crate) fn write_ingest_request<'d>(
    out: &mut Vec<u8>,
    name: &str,
    version: u64,
    chunk_bytes: u64,
    data: &'d [u8],
    payloads: Payloads,
) -> &'d [u8] {
    out.clear();
    if payloads == Payloads::Hex {
        out.reserve(data.len() * 2 + name.len() + 96);
    }
    out.extend_from_slice(br#"{"type":"ingest","name":"#);
    write_json_str(out, name);
    out.extend_from_slice(
        format!(r#","version":{version},"chunk_bytes":{chunk_bytes},"data":""#).as_bytes(),
    );
    match payloads {
        Payloads::Hex => {
            hex_encode_into(out, data);
            out.extend_from_slice(br#""}"#);
            &[]
        }
        Payloads::Raw => {
            out.push(b'"');
            end_header(out, data.len());
            data
        }
    }
}

/// Writes a `status` answer into `out` from a borrowed result and
/// returns what must follow it on the wire: the job table keeps its
/// document and payload, and nothing is copied but what leaves.
///
/// `payload`, when there is one, is the result's `"data"`: appended to
/// the document as hex under [`Payloads::Hex`] — byte for byte what
/// [`encode`] gives for the message with that field — and as `""`
/// with the bytes as the section under [`Payloads::Raw`]. A payload
/// needs a result, which must be an object.
pub(crate) fn write_status_response<'p>(
    out: &mut Vec<u8>,
    job: u64,
    state: JobState,
    result: Option<&Value>,
    payload: Option<&'p [u8]>,
    error: Option<&str>,
    payloads: Payloads,
) -> &'p [u8] {
    out.clear();
    out.extend_from_slice(
        format!(
            r#"{{"type":"status","job":{job},"state":"{}""#,
            state.as_str()
        )
        .as_bytes(),
    );
    if let Some(result) = result {
        out.extend_from_slice(br#","result":"#);
        serde_json::write_compact(out, result);
        if let Some(payload) = payload {
            // Reopen the document for its last field.
            debug_assert_eq!(out.last(), Some(&b'}'), "a payload's result is an object");
            out.pop();
            if out.last() != Some(&b'{') {
                out.push(b',');
            }
            out.extend_from_slice(br#""data":""#);
            if payloads == Payloads::Hex {
                out.reserve(payload.len() * 2 + error.map_or(0, str::len) + 64);
                hex_encode_into(out, payload);
            }
            out.extend_from_slice(br#""}"#);
        }
    }
    if let Some(error) = error {
        out.extend_from_slice(br#","error":"#);
        write_json_str(out, error);
    }
    match (payloads, payload) {
        (Payloads::Raw, Some(payload)) if result.is_some() => {
            end_header(out, payload.len());
            payload
        }
        _ => {
            out.push(b'}');
            &[]
        }
    }
}

/// Closes a header whose object is still open with the field declaring
/// a `len`-byte section, and marks the section's start.
fn end_header(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(format!(r#","{RAW_BYTES}":{len}}}"#).as_bytes());
    out.push(SECTION_MARK);
}

/// Sets `doc`'s `"data"` field to `bytes` in hex, appending the field
/// when the document has none: how a result whose bytes were kept or
/// sent raw becomes the one document a hex reader knows.
pub(crate) fn fill_data(doc: &mut Value, bytes: &[u8]) {
    let Value::Object(fields) = doc else {
        return;
    };
    let hex = Value::String(hex_encode(bytes));
    match fields.iter_mut().find(|(key, _)| key == "data") {
        Some((_, value)) => *value = hex,
        None => fields.push(("data".to_owned(), hex)),
    }
}

/// Decodes a request frame of a session whose payloads travel as
/// `payloads`: the message and, for an `ingest` whose header declared
/// one, its raw section, borrowed from `payload`. Under
/// [`Payloads::Hex`] this is [`Request::decode`].
///
/// # Errors
///
/// [`ProtoError`] as for [`Request::decode`], and
/// [`ProtoError::Schema`] for a section that is not the declared
/// length, is not declared, or rides on anything but an `ingest` with
/// empty `"data"`.
pub fn decode_request(
    payload: &[u8],
    payloads: Payloads,
) -> Result<(Request, Option<&[u8]>), ProtoError> {
    let (header, section) = split_section(payload, payloads)?;
    let request: Request = decode_value(header)?;
    match (&request, section) {
        (Request::Ingest { data, .. }, Some(_)) if !data.is_empty() => Err(ProtoError::Schema(
            "an `ingest` with both hex `data` and a raw section".to_owned(),
        )),
        (Request::Ingest { .. }, _) | (_, None) => Ok((request, section)),
        (other, Some(_)) => Err(no_payload_on(other.type_name())),
    }
}

/// [`decode_request`]'s counterpart for answers: a section may ride
/// only on a `status` whose result's `"data"` is `""`.
///
/// # Errors
///
/// As [`decode_request`].
pub fn decode_response(
    payload: &[u8],
    payloads: Payloads,
) -> Result<(Response, Option<&[u8]>), ProtoError> {
    let (header, section) = split_section(payload, payloads)?;
    let response: Response = decode_value(header)?;
    let carries = |r: &Response| match r {
        Response::Status {
            result: Some(result),
            ..
        } => result.get("data").and_then(Value::as_str) == Some(""),
        _ => false,
    };
    match section {
        Some(_) if !carries(&response) => Err(no_payload_on(response.type_name())),
        _ => Ok((response, section)),
    }
}

fn no_payload_on(verb: &str) -> ProtoError {
    ProtoError::Schema(format!(
        "a raw section on a `{verb}`, which carries no payload"
    ))
}

/// Parses a frame's JSON header and finds the raw section it declared.
/// The section is only sought in a session that agreed to one.
fn split_section(payload: &[u8], payloads: Payloads) -> Result<(Value, Option<&[u8]>), ProtoError> {
    let mark = match payloads {
        Payloads::Raw => payload.iter().position(|&b| b == SECTION_MARK),
        Payloads::Hex => None,
    };
    let (header, section) = match mark {
        Some(at) => (&payload[..at], Some(&payload[at + 1..])),
        None => (payload, None),
    };
    let header = parse(header)?;
    if payloads == Payloads::Hex {
        return Ok((header, None));
    }
    let declared = header
        .get(RAW_BYTES)
        .map(|len| {
            len.as_u64()
                .ok_or_else(|| ProtoError::Schema(format!("`{RAW_BYTES}` is not a byte count")))
        })
        .transpose()?;
    match (declared, section) {
        (None, None) => Ok((header, None)),
        (Some(len), Some(section)) if len == section.len() as u64 => Ok((header, Some(section))),
        (Some(len), section) => Err(ProtoError::Schema(format!(
            "the header declares a {len}-byte raw section; the frame carries {}",
            section.map_or(0, <[u8]>::len)
        ))),
        (None, Some(section)) => Err(ProtoError::Schema(format!(
            "a {}-byte raw section the header does not declare",
            section.len()
        ))),
    }
}

fn write_json_str(out: &mut Vec<u8>, s: &str) {
    serde_json::write_compact(out, &Value::String(s.to_owned()));
}

/// Serializes any protocol message to its frame payload bytes.
#[must_use]
pub fn encode(msg: &impl Serialize) -> Vec<u8> {
    serde_json::to_string(msg).unwrap_or_default().into_bytes()
}

/// Parses a frame payload and decodes the message it holds, moving
/// its strings out of the parsed tree.
fn decode<T: Deserialize>(payload: &[u8]) -> Result<T, ProtoError> {
    decode_value(parse(payload)?)
}

fn parse(payload: &[u8]) -> Result<Value, ProtoError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ProtoError::Schema("frame payload is not UTF-8".to_owned()))?;
    serde_json::from_str(text).map_err(ProtoError::Json)
}

fn decode_value<T: Deserialize>(value: Value) -> Result<T, ProtoError> {
    serde_json::from_value(value).map_err(|e| ProtoError::Schema(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_round_trips_through_its_frame() {
        let reqs = vec![
            Request::Hello {
                client: "c1".into(),
                protocol: PROTOCOL_VERSION,
                raw_sections: false,
            },
            Request::Hello {
                client: "c2".into(),
                protocol: PROTOCOL_VERSION,
                raw_sections: true,
            },
            Request::Ingest {
                name: "run".into(),
                version: 3,
                chunk_bytes: 4096,
                data: hex_encode(&[0xde, 0xad, 0xbe, 0xef]),
            },
            Request::Compare {
                left: ObjectRef {
                    name: "a".into(),
                    version: 1,
                },
                right: ObjectRef {
                    name: "b".into(),
                    version: 2,
                },
            },
            Request::CompareMany {
                baseline: ObjectRef {
                    name: "base".into(),
                    version: 1,
                },
                runs: vec![
                    ObjectRef {
                        name: "r1".into(),
                        version: 1,
                    },
                    ObjectRef {
                        name: "r2".into(),
                        version: 1,
                    },
                ],
            },
            Request::Materialize {
                name: "run".into(),
                version: 3,
            },
            Request::Status { job: 7, wait: true },
            Request::Watch { job: 7 },
            Request::Metrics,
            Request::SubscribeTelemetry { max: 4 },
            Request::SubscribeTelemetry { max: 0 },
            Request::Shutdown,
        ];
        for req in reqs {
            let bytes = encode(&req);
            assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn every_response_round_trips_through_its_frame() {
        let resps = vec![
            Response::HelloOk {
                server: "reprocmp-server".into(),
                protocol: 1,
                queue_capacity: 64,
                raw_sections: false,
            },
            Response::HelloOk {
                server: "reprocmp-server".into(),
                protocol: 1,
                queue_capacity: 64,
                raw_sections: true,
            },
            Response::Accepted { job: 9 },
            Response::Rejected {
                reason: "queue full".into(),
            },
            Response::Status {
                job: 9,
                state: JobState::Done,
                result: Some(Value::Object(vec![("bytes".to_owned(), Value::UInt(4096))])),
                error: None,
            },
            Response::Status {
                job: 9,
                state: JobState::Failed,
                result: None,
                error: Some("no such object".into()),
            },
            Response::Event {
                job: 9,
                seq: 0,
                ts_ns: 1200,
                lane: "main".into(),
                kind: "chunk_read".into(),
            },
            Response::Done {
                job: 9,
                state: JobState::Done,
                events_emitted: 10,
                events_written: 10,
                events_dropped: 0,
            },
            Response::Telemetry {
                snapshot: Value::Object(vec![
                    ("schema".to_owned(), Value::UInt(1)),
                    ("seq".to_owned(), Value::UInt(12)),
                ]),
            },
            Response::TelemetryEnd { snapshots: 12 },
            Response::Error {
                message: "unknown job 4".into(),
            },
        ];
        for resp in resps {
            let bytes = encode(&resp);
            assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn framing_round_trips_and_rejects_implausible_lengths() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");

        let mut bad = std::io::Cursor::new((MAX_FRAME_BYTES + 1).to_le_bytes().to_vec());
        assert!(read_frame(&mut bad).is_err(), "oversized length prefix");
        let mut torn = std::io::Cursor::new(vec![8, 0, 0, 0, 1, 2]);
        assert!(read_frame(&mut torn).is_err(), "EOF mid-frame");
    }

    #[test]
    fn hex_codec_round_trips_and_rejects_junk() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert!(hex_decode("abc").is_err(), "odd length");
        assert!(hex_decode("zz").is_err(), "non-hex digit");
    }

    /// The decoder this one replaced: one checked digit at a time. Kept
    /// as the oracle for the accept set and the error text.
    fn hex_decode_reference(s: &str) -> Result<Vec<u8>, String> {
        fn digit(b: u8) -> Result<u8, String> {
            match b {
                b'0'..=b'9' => Ok(b - b'0'),
                b'a'..=b'f' => Ok(b - b'a' + 10),
                b'A'..=b'F' => Ok(b - b'A' + 10),
                other => Err(format!("invalid hex digit {:?}", other as char)),
            }
        }
        if !s.len().is_multiple_of(2) {
            return Err(format!("hex payload has odd length {}", s.len()));
        }
        s.as_bytes()
            .chunks_exact(2)
            .map(|pair| Ok((digit(pair[0])? << 4) | digit(pair[1])?))
            .collect()
    }

    /// `hex_decode`'s answer, once the in-place decoder has given the
    /// same one.
    fn decode_both_ways(s: &str) -> Result<Vec<u8>, String> {
        let borrowed = hex_decode(s);
        assert_eq!(hex_decode_owned(s.to_owned()), borrowed, "{s:?}");
        borrowed
    }

    proptest::proptest! {
        #[test]
        fn hex_round_trips_in_any_case(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            upper_mask in proptest::prelude::any::<u64>(),
        ) {
            let lower = hex_encode(&bytes);
            proptest::prop_assert_eq!(lower.len(), bytes.len() * 2);
            proptest::prop_assert_eq!(&decode_both_ways(&lower).unwrap(), &bytes);
            proptest::prop_assert_eq!(&decode_both_ways(&lower.to_uppercase()).unwrap(), &bytes);
            let mixed: String = lower
                .chars()
                .enumerate()
                .map(|(i, c)| match upper_mask >> (i % 64) & 1 {
                    1 => c.to_ascii_uppercase(),
                    _ => c,
                })
                .collect();
            proptest::prop_assert_eq!(&decode_both_ways(&mixed).unwrap(), &bytes);
        }
    }

    #[test]
    fn every_non_hex_byte_at_every_position_is_rejected_with_the_old_text() {
        let good = "0123abCDef";
        for pos in 0..good.len() {
            for b in 0u8..128 {
                let mut s = good.as_bytes().to_vec();
                s[pos] = b;
                let s = String::from_utf8(s).expect("ASCII");
                assert_eq!(decode_both_ways(&s), hex_decode_reference(&s), "{s:?}");
                assert_eq!(hex_decode(&s).is_ok(), b.is_ascii_hexdigit(), "{s:?}");
            }
            // A two-byte char keeps the length even; the message names
            // its first byte, as the digit-at-a-time decoder did.
            let mut s = good.to_owned();
            s.replace_range(pos..(pos + 2).min(good.len()), "é");
            assert_eq!(decode_both_ways(&s), hex_decode_reference(&s), "{s:?}");
        }
        // Two bad digits: the first in the text is the one reported.
        assert_eq!(decode_both_ways("0g0h"), hex_decode_reference("0g0h"));
        assert_eq!(decode_both_ways("abc"), hex_decode_reference("abc"));
        assert_eq!(decode_both_ways(""), Ok(Vec::new()));
        // Past the in-place decoder's first block, where the bytes it
        // has written no longer overlap the digits it reads.
        let long = "5a".repeat(100);
        for pos in [63, 64, 65, 127, 128, 199] {
            let mut s = long.clone();
            s.replace_range(pos..=pos, "x");
            assert_eq!(decode_both_ways(&s), hex_decode_reference(&s), "{pos}");
        }
    }

    /// Counts the calls `write_frame` makes, accepting every byte.
    #[derive(Default)]
    struct CountingWriter {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            bufs.iter().for_each(|b| self.bytes.extend_from_slice(b));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_small_or_large_is_one_write() {
        for len in [100usize, 2 << 20] {
            let payload = vec![b'x'; len];
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.calls, 1, "{len}-byte frame");
            assert_eq!(w.bytes[..4], (len as u32).to_le_bytes());
            assert_eq!(w.bytes[4..], payload[..]);
        }
    }

    #[test]
    fn a_frame_cut_at_any_offset_is_unexpected_eof() {
        let golden = include_bytes!("../../../tests/goldens/wire/req_ingest.json");
        let mut frame = Vec::new();
        write_frame(&mut frame, golden).unwrap();
        assert_eq!(read_frame(&mut &frame[..]).unwrap().unwrap(), golden);
        assert_eq!(read_frame(&mut &frame[..0]).unwrap(), None, "clean EOF");
        for cut in 1..frame.len() {
            let err = read_frame(&mut &frame[..cut]).expect_err("torn frame");
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn a_kept_buffer_is_reused_frame_after_frame_until_one_outgrows_it() {
        let mut wire = Vec::new();
        for payload in [&b"first frame"[..], &b"2nd"[..], &b""[..]] {
            write_frame(&mut wire, payload).unwrap();
        }
        let mut r = &wire[..];
        let mut buf = Vec::with_capacity(64);
        let kept = buf.as_ptr();
        for payload in [&b"first frame"[..], &b"2nd"[..], &b""[..]] {
            assert!(read_frame_into(&mut r, &mut buf).unwrap());
            assert_eq!(buf, payload);
            assert_eq!(buf.as_ptr(), kept, "no new allocation");
            recycle(&mut buf);
        }
        assert!(!read_frame_into(&mut r, &mut buf).unwrap(), "clean EOF");

        let mut scratch = Vec::new();
        let mut w = CountingWriter::default();
        write_frame_with(&mut w, &mut scratch, &vec![b'x'; 2 << 20], &[]).unwrap();
        let kept = (scratch.as_ptr(), scratch.capacity());
        write_frame_with(&mut w, &mut scratch, b"small", b" head, raw tail").unwrap();
        assert_eq!((scratch.as_ptr(), scratch.capacity()), kept);
        assert_eq!(w.calls, 2, "still one write per frame");
        assert_eq!(
            w.bytes[w.bytes.len() - 24..],
            b"\x14\0\0\0small head, raw tail"[..]
        );
        write_frame_with(&mut w, &mut scratch, &vec![b'x'; SCRATCH_RETAIN_BYTES], &[]).unwrap();
        assert_eq!(
            scratch.capacity(),
            0,
            "an outsized frame's buffer is let go"
        );
    }

    #[test]
    fn payload_frames_written_from_borrowed_parts_match_the_message_codec() {
        let payloads: [&[u8]; 3] = [&[], &[0x00, 0x7f, 0xff], &[0xa5; 1000]];
        for name in ["run", "a \"quoted\"\\name\n", "é✓"] {
            for data in payloads {
                let mut out = b"stale".to_vec();
                let tail = write_ingest_request(&mut out, name, 7, 4096, data, Payloads::Hex);
                assert!(tail.is_empty());
                let message = Request::Ingest {
                    name: name.to_owned(),
                    version: 7,
                    chunk_bytes: 4096,
                    data: hex_encode(data),
                };
                assert_eq!(out, encode(&message), "{name:?}");

                let tail = write_ingest_request(&mut out, name, 7, 4096, data, Payloads::Raw);
                assert_eq!(tail, data);
                let frame = [&out[..], tail].concat();
                let (decoded, section) = decode_request(&frame, Payloads::Raw).unwrap();
                let header = Request::Ingest {
                    name: name.to_owned(),
                    version: 7,
                    chunk_bytes: 4096,
                    data: String::new(),
                };
                assert_eq!((decoded, section), (header, Some(data)), "{name:?}");
            }
        }
        let result = Value::Object(vec![
            ("bytes".to_owned(), Value::UInt(3)),
            ("data".to_owned(), Value::String("00ff".to_owned())),
            (
                "nested".to_owned(),
                Value::Array(vec![Value::Null, Value::Float(0.5)]),
            ),
        ]);
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
        ] {
            for result in [None, Some(&result)] {
                for error in [None, Some("no such object \"x\"\n")] {
                    let message = Response::Status {
                        job: 41,
                        state,
                        result: result.cloned(),
                        error: error.map(str::to_owned),
                    };
                    for payloads in [Payloads::Hex, Payloads::Raw] {
                        let mut out = b"stale".to_vec();
                        let tail = write_status_response(
                            &mut out, 41, state, result, None, error, payloads,
                        );
                        assert!(tail.is_empty());
                        assert_eq!(out, encode(&message));
                    }
                }
            }
        }
    }

    #[test]
    fn a_kept_payload_is_the_documents_last_field_in_hex_or_the_raw_section() {
        let kept = Value::Object(vec![
            ("name".to_owned(), Value::String("obj".to_owned())),
            ("bytes".to_owned(), Value::UInt(3)),
        ]);
        let bytes = [0x00, 0x7f, 0xff];
        let mut whole = kept.clone();
        fill_data(&mut whole, &bytes);
        for error in [None, Some("late")] {
            let mut out = Vec::new();
            let tail = write_status_response(
                &mut out,
                5,
                JobState::Done,
                Some(&kept),
                Some(&bytes),
                error,
                Payloads::Hex,
            );
            assert!(tail.is_empty());
            let message = Response::Status {
                job: 5,
                state: JobState::Done,
                result: Some(whole.clone()),
                error: error.map(str::to_owned),
            };
            assert_eq!(out, encode(&message));

            let tail = write_status_response(
                &mut out,
                5,
                JobState::Done,
                Some(&kept),
                Some(&bytes),
                error,
                Payloads::Raw,
            );
            assert_eq!(tail, bytes);
            let frame = [&out[..], tail].concat();
            let (mut decoded, section) = decode_response(&frame, Payloads::Raw).unwrap();
            assert_eq!(section, Some(&bytes[..]));
            if let Response::Status {
                result: Some(doc), ..
            } = &mut decoded
            {
                assert_eq!(doc.get("data").and_then(Value::as_str), Some(""));
                fill_data(doc, &bytes);
            }
            assert_eq!(decoded, message, "re-hexed, the raw answer is the hex one");
        }
        // An empty document takes the field without a leading comma.
        let mut out = Vec::new();
        let empty = Value::Object(Vec::new());
        write_status_response(
            &mut out,
            5,
            JobState::Done,
            Some(&empty),
            Some(&bytes),
            None,
            Payloads::Hex,
        );
        assert!(Response::decode(&out).is_ok());
    }

    #[test]
    fn unknown_fields_are_ignored_additively() {
        let doc = br#"{"type":"accepted","job":3,"added_in_v2":{"deep":[1,2,3]}}"#;
        assert_eq!(
            Response::decode(doc).unwrap(),
            Response::Accepted { job: 3 }
        );
    }
}
