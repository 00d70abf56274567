//! The client library: a typed session over any [`Conn`].
//!
//! One [`ServerClient`] wraps one connection: it speaks the hello
//! handshake, submits jobs, polls or waits on status, and consumes
//! watch streams. The CLI verbs (`submit`, `status`, `watch`) and the
//! test harnesses are both built on it, over TCP and in-process
//! transports alike.

use std::net::SocketAddr;

use serde::Value;

use crate::proto::{
    decode_response, encode, fill_data, recycle, write_ingest_request, JobState, ObjectRef,
    Payloads, Request, Response, PROTOCOL_VERSION,
};
use crate::transport::{Conn, TcpConn};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server's frame didn't decode.
    Proto(crate::proto::ProtoError),
    /// Admission control refused the job — retry after backoff.
    Rejected {
        /// The server's stated reason.
        reason: String,
    },
    /// The server answered with an `error` frame.
    Server {
        /// The server's message.
        message: String,
    },
    /// The server hung up mid-conversation.
    Disconnected,
    /// The server answered with a frame the call didn't expect.
    UnexpectedResponse {
        /// The frame's `type` tag.
        got: &'static str,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client transport failure: {e}"),
            ClientError::Proto(e) => write!(f, "client protocol failure: {e}"),
            ClientError::Rejected { reason } => write!(f, "job rejected: {reason}"),
            ClientError::Server { message } => write!(f, "server error: {message}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::UnexpectedResponse { got } => {
                write!(f, "unexpected `{got}` response")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<crate::proto::ProtoError> for ClientError {
    fn from(e: crate::proto::ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// What the server said hello back with.
#[derive(Debug, Clone)]
pub struct ServerInfo {
    /// Server software name.
    pub server: String,
    /// Protocol revision it speaks.
    pub protocol: u64,
    /// Its admission-control bound.
    pub queue_capacity: u64,
    /// How this session's payloads travel: raw when the server took the
    /// client's offer of raw sections, hex otherwise.
    pub payloads: Payloads,
}

/// A job's status as seen over the wire.
#[derive(Debug, Clone)]
pub struct RemoteStatus {
    /// Job id.
    pub job: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Result document when done.
    pub result: Option<Value>,
    /// Failure message when failed.
    pub error: Option<String>,
    /// A materialize's bytes, when they arrived as a raw section.
    payload: Option<Vec<u8>>,
}

impl RemoteStatus {
    /// A materialize's bytes as they arrived, in a session whose
    /// payloads travel raw; `None` otherwise. `result`'s `"data"` holds
    /// the same bytes in hex either way.
    #[must_use]
    pub fn payload(&self) -> Option<&[u8]> {
        self.payload.as_deref()
    }
}

/// One streamed flight-recorder event from a watch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchedEvent {
    /// Sequence number within the job's journal.
    pub seq: u64,
    /// Timestamp on the job's deterministic timeline, ns.
    pub ts_ns: u64,
    /// Journal lane.
    pub lane: String,
    /// Event kind tag.
    pub kind: String,
}

/// The terminal frame of a watch stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchSummary {
    /// Final job state.
    pub state: JobState,
    /// Journal ledger: emitted.
    pub events_emitted: u64,
    /// Journal ledger: written (retained + streamed).
    pub events_written: u64,
    /// Journal ledger: dropped under the capacity bound.
    pub events_dropped: u64,
}

/// A typed session over one connection.
pub struct ServerClient {
    conn: Box<dyn Conn>,
    info: ServerInfo,
    /// The session's frame buffers, reused from call to call.
    outgoing: Vec<u8>,
    incoming: Vec<u8>,
}

impl std::fmt::Debug for ServerClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerClient")
            .field("info", &self.info)
            .finish_non_exhaustive()
    }
}

impl ServerClient {
    /// Opens a session over `conn`, identifying as `client` for fair
    /// queuing and offering raw payload sections, which the session
    /// uses if the server takes them.
    ///
    /// # Errors
    ///
    /// Transport or handshake failures.
    pub fn over(mut conn: Box<dyn Conn>, client: &str) -> ClientResult<Self> {
        conn.send(&encode(&Request::Hello {
            client: client.to_owned(),
            protocol: PROTOCOL_VERSION,
            raw_sections: true,
        }))?;
        let payload = conn.recv()?.ok_or(ClientError::Disconnected)?;
        match Response::decode(&payload)? {
            Response::HelloOk {
                server,
                protocol,
                queue_capacity,
                raw_sections,
            } => Ok(ServerClient {
                conn,
                info: ServerInfo {
                    server,
                    protocol,
                    queue_capacity,
                    payloads: Payloads::agreed(raw_sections),
                },
                outgoing: Vec::new(),
                incoming: Vec::new(),
            }),
            Response::Error { message } => Err(ClientError::Server { message }),
            other => Err(ClientError::UnexpectedResponse {
                got: other.type_name(),
            }),
        }
    }

    /// Connects a TCP session to `addr` as `client`.
    ///
    /// # Errors
    ///
    /// Connection or handshake failures.
    pub fn connect(addr: SocketAddr, client: &str) -> ClientResult<Self> {
        Self::over(Box::new(TcpConn::connect(addr)?), client)
    }

    /// The hello answer this session opened with.
    #[must_use]
    pub fn server_info(&self) -> &ServerInfo {
        &self.info
    }

    fn call(&mut self, req: &Request) -> ClientResult<Response> {
        Ok(self.call_for_section(req)?.0)
    }

    /// [`ServerClient::call`], with the raw section the answer carried.
    fn call_for_section(&mut self, req: &Request) -> ClientResult<(Response, Option<Vec<u8>>)> {
        self.conn.send(&encode(req))?;
        self.answer()
    }

    /// Reads and decodes the next frame, copying out the raw section
    /// its header declared.
    fn answer(&mut self) -> ClientResult<(Response, Option<Vec<u8>>)> {
        if !self.conn.recv_into(&mut self.incoming)? {
            return Err(ClientError::Disconnected);
        }
        let decoded = decode_response(&self.incoming, self.info.payloads)
            .map(|(response, section)| (response, section.map(<[u8]>::to_vec)));
        recycle(&mut self.incoming);
        Ok(decoded?)
    }

    fn submit(&mut self, req: &Request) -> ClientResult<u64> {
        let response = self.call(req)?;
        Self::accepted(response)
    }

    fn accepted(response: Response) -> ClientResult<u64> {
        match response {
            Response::Accepted { job } => Ok(job),
            Response::Rejected { reason } => Err(ClientError::Rejected { reason }),
            Response::Error { message } => Err(ClientError::Server { message }),
            other => Err(ClientError::UnexpectedResponse {
                got: other.type_name(),
            }),
        }
    }

    /// Submits an ingest job. The payload travels as the frame's raw
    /// section when the session agreed to raw sections (see
    /// [`ServerInfo::payloads`]), and hex-encoded in its `"data"`
    /// otherwise; either way it is copied once, into the outgoing frame.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] under backpressure (retryable);
    /// transport failures.
    pub fn ingest(
        &mut self,
        name: &str,
        version: u64,
        chunk_bytes: u64,
        data: &[u8],
    ) -> ClientResult<u64> {
        let section = write_ingest_request(
            &mut self.outgoing,
            name,
            version,
            chunk_bytes,
            data,
            self.info.payloads,
        );
        let sent = self.conn.send_parts(&self.outgoing, section);
        recycle(&mut self.outgoing);
        sent?;
        let (response, _) = self.answer()?;
        Self::accepted(response)
    }

    /// Submits a pairwise compare job.
    ///
    /// # Errors
    ///
    /// As [`ServerClient::ingest`].
    pub fn compare(&mut self, left: ObjectRef, right: ObjectRef) -> ClientResult<u64> {
        self.submit(&Request::Compare { left, right })
    }

    /// Submits a batch compare job.
    ///
    /// # Errors
    ///
    /// As [`ServerClient::ingest`].
    pub fn compare_many(&mut self, baseline: ObjectRef, runs: Vec<ObjectRef>) -> ClientResult<u64> {
        self.submit(&Request::CompareMany { baseline, runs })
    }

    /// Submits a materialize job.
    ///
    /// # Errors
    ///
    /// As [`ServerClient::ingest`].
    pub fn materialize(&mut self, name: &str, version: u64) -> ClientResult<u64> {
        self.submit(&Request::Materialize {
            name: name.to_owned(),
            version,
        })
    }

    /// Queries a job's status; with `wait` the server holds the reply
    /// until the job is terminal (no client-side polling). A
    /// materialize's bytes are in `result`'s `"data"` as hex, however
    /// they travelled.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for unknown jobs; transport failures.
    pub fn status(&mut self, job: u64, wait: bool) -> ClientResult<RemoteStatus> {
        match self.call_for_section(&Request::Status { job, wait })? {
            (
                Response::Status {
                    job,
                    state,
                    mut result,
                    error,
                },
                payload,
            ) => {
                if let (Some(doc), Some(bytes)) = (&mut result, &payload) {
                    fill_data(doc, bytes);
                }
                Ok(RemoteStatus {
                    job,
                    state,
                    result,
                    error,
                    payload,
                })
            }
            (Response::Error { message }, _) => Err(ClientError::Server { message }),
            (other, _) => Err(ClientError::UnexpectedResponse {
                got: other.type_name(),
            }),
        }
    }

    /// Blocks until `job` is terminal and returns its final status.
    ///
    /// # Errors
    ///
    /// As [`ServerClient::status`].
    pub fn wait(&mut self, job: u64) -> ClientResult<RemoteStatus> {
        self.status(job, true)
    }

    /// Streams a job's flight-recorder events (blocking until the job
    /// is terminal), returning them with the terminal ledger summary.
    ///
    /// # Errors
    ///
    /// As [`ServerClient::status`].
    pub fn watch(&mut self, job: u64) -> ClientResult<(Vec<WatchedEvent>, WatchSummary)> {
        self.conn.send(&encode(&Request::Watch { job }))?;
        let mut events = Vec::new();
        loop {
            match self.answer()?.0 {
                Response::Event {
                    seq,
                    ts_ns,
                    lane,
                    kind,
                    ..
                } => events.push(WatchedEvent {
                    seq,
                    ts_ns,
                    lane,
                    kind,
                }),
                Response::Done {
                    state,
                    events_emitted,
                    events_written,
                    events_dropped,
                    ..
                } => {
                    return Ok((
                        events,
                        WatchSummary {
                            state,
                            events_emitted,
                            events_written,
                            events_dropped,
                        },
                    ))
                }
                Response::Error { message } => return Err(ClientError::Server { message }),
                other => {
                    return Err(ClientError::UnexpectedResponse {
                        got: other.type_name(),
                    })
                }
            }
        }
    }

    /// Fetches one telemetry snapshot taken right now, as the raw
    /// decoded JSON value (pass it to
    /// `reprocmp_obs::telemetry::TelemetrySnapshot::from_value` for the
    /// typed view, or render it with `prometheus_text`).
    ///
    /// # Errors
    ///
    /// Transport failures; unexpected frames.
    pub fn metrics(&mut self) -> ClientResult<Value> {
        match self.call(&Request::Metrics)? {
            Response::Telemetry { snapshot } => Ok(snapshot),
            Response::Error { message } => Err(ClientError::Server { message }),
            other => Err(ClientError::UnexpectedResponse {
                got: other.type_name(),
            }),
        }
    }

    /// Subscribes to the telemetry stream: the retained history first,
    /// then live samples, until `max` snapshots arrived (`0` = until
    /// the daemon shuts down). Returns the raw snapshot values in
    /// arrival order once the terminal `telemetry_end` frame lands.
    ///
    /// # Errors
    ///
    /// Transport failures; unexpected frames.
    pub fn subscribe_telemetry(&mut self, max: u64) -> ClientResult<Vec<Value>> {
        self.conn
            .send(&encode(&Request::SubscribeTelemetry { max }))?;
        let mut snapshots = Vec::new();
        loop {
            match self.answer()?.0 {
                Response::Telemetry { snapshot } => snapshots.push(snapshot),
                Response::TelemetryEnd { .. } => return Ok(snapshots),
                Response::Error { message } => return Err(ClientError::Server { message }),
                other => {
                    return Err(ClientError::UnexpectedResponse {
                        got: other.type_name(),
                    })
                }
            }
        }
    }

    /// Asks the daemon to drain and exit; returns once acknowledged.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown_server(&mut self) -> ClientResult<()> {
        match self.call(&Request::Shutdown)? {
            Response::Accepted { .. } => Ok(()),
            Response::Error { message } => Err(ClientError::Server { message }),
            other => Err(ClientError::UnexpectedResponse {
                got: other.type_name(),
            }),
        }
    }
}
