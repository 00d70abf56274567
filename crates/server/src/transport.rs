//! Transports and the per-connection dispatch loop.
//!
//! Two interchangeable transports carry the framed protocol:
//!
//! * **TCP** ([`TcpTransport`]) — the real daemon surface, one handler
//!   thread per accepted connection;
//! * **in-process** ([`pair`]) — two channel-backed [`Conn`] halves,
//!   letting tests drive many concurrent "clients" against one daemon
//!   without sockets (and deterministically, since nothing crosses the
//!   kernel).
//!
//! Both feed the same [`serve_connection`] loop, so the oracle suite
//! exercises the exact dispatch path production traffic takes.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender};
use serde::Serialize;

use crate::proto::{
    decode_request, encode, read_frame, read_frame_into, recycle, write_frame_with,
    write_status_response, Payloads, Request, Response, PROTOCOL_VERSION,
};
use crate::queue::AdmitError;
use crate::server::{JobSpec, Server};

/// A bidirectional frame pipe: one payload per send/recv.
pub trait Conn: Send {
    /// Sends one frame payload.
    ///
    /// # Errors
    ///
    /// Underlying transport failures (peer gone, socket error).
    fn send(&mut self, payload: &[u8]) -> std::io::Result<()>;

    /// Sends one frame whose payload is `head` followed by `tail` — a
    /// header and its raw section — as [`Conn::send`] would send the
    /// two joined.
    ///
    /// # Errors
    ///
    /// As [`Conn::send`].
    fn send_parts(&mut self, head: &[u8], tail: &[u8]) -> std::io::Result<()> {
        if tail.is_empty() {
            return self.send(head);
        }
        self.send(&[head, tail].concat())
    }

    /// Receives one frame payload; `Ok(None)` when the peer hung up
    /// cleanly.
    ///
    /// # Errors
    ///
    /// Underlying transport failures or torn frames.
    fn recv(&mut self) -> std::io::Result<Option<Vec<u8>>>;

    /// [`Conn::recv`] into a buffer the caller keeps from frame to
    /// frame: `buf` is replaced by the payload, `Ok(false)` when the
    /// peer hung up cleanly.
    ///
    /// # Errors
    ///
    /// As [`Conn::recv`].
    fn recv_into(&mut self, buf: &mut Vec<u8>) -> std::io::Result<bool> {
        Ok(match self.recv()? {
            Some(payload) => {
                *buf = payload;
                true
            }
            None => false,
        })
    }
}

/// [`Conn`] over a TCP stream using the length-prefixed framing.
#[derive(Debug)]
pub struct TcpConn {
    stream: TcpStream,
    /// Where outgoing frames are assembled, kept between sends.
    frame: Vec<u8>,
}

impl TcpConn {
    /// Wraps a connected stream.
    #[must_use]
    pub fn new(stream: TcpStream) -> Self {
        TcpConn {
            stream,
            frame: Vec::new(),
        }
    }

    /// Connects to a daemon at `addr`, with `TCP_NODELAY` set as on the
    /// accept side: a request frame leaves when written instead of
    /// waiting out the peer's delayed ACK of the previous one.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpConn::new(stream))
    }
}

impl Conn for TcpConn {
    fn send(&mut self, payload: &[u8]) -> std::io::Result<()> {
        write_frame_with(&mut self.stream, &mut self.frame, payload, &[])
    }

    fn send_parts(&mut self, head: &[u8], tail: &[u8]) -> std::io::Result<()> {
        write_frame_with(&mut self.stream, &mut self.frame, head, tail)
    }

    fn recv(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        read_frame(&mut self.stream)
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> std::io::Result<bool> {
        read_frame_into(&mut self.stream, buf)
    }
}

impl Read for TcpConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.read(buf)
    }
}

impl Write for TcpConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// One half of an in-process connection (see [`pair`]).
#[derive(Debug)]
pub struct ChannelConn {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// An in-process connection: two [`ChannelConn`] halves whose sends
/// arrive at the other half's recv, mimicking a socket without one.
#[must_use]
pub fn pair() -> (ChannelConn, ChannelConn) {
    let (a_tx, a_rx) = channel::unbounded();
    let (b_tx, b_rx) = channel::unbounded();
    (
        ChannelConn { tx: a_tx, rx: b_rx },
        ChannelConn { tx: b_tx, rx: a_rx },
    )
}

impl Conn for ChannelConn {
    fn send(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.send_parts(payload, &[])
    }

    fn send_parts(&mut self, head: &[u8], tail: &[u8]) -> std::io::Result<()> {
        self.tx
            .send([head, tail].concat())
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer disconnected"))
    }

    fn recv(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        match self.rx.recv() {
            Ok(payload) => Ok(Some(payload)),
            Err(_) => Ok(None), // peer dropped its half: clean EOF
        }
    }
}

/// Serves one connection until the peer hangs up: decode each request,
/// dispatch against `server`, answer with one or more response frames.
/// Never panics on hostile input — malformed frames get a typed
/// `error` response (or close the connection on framing corruption).
///
/// # Errors
///
/// Transport-level failures only; protocol-level problems are answered
/// in-band.
pub fn serve_connection(server: &Server, conn: &mut dyn Conn) -> std::io::Result<()> {
    // Fair-queuing identity until (and unless) the client says hello.
    let mut client = String::from("anonymous");
    // How payloads travel, as the last hello agreed.
    let mut payloads = Payloads::Hex;
    // This connection's frame buffers, reused from request to request.
    let (mut payload, mut answer) = (Vec::new(), Vec::new());
    loop {
        // An ingest's raw section is read from `payload` until its job
        // is admitted, so the buffer is let go only before the next.
        recycle(&mut payload);
        if !conn.recv_into(&mut payload)? {
            break;
        }
        let (request, section) = match decode_request(&payload, payloads) {
            Ok(decoded) => decoded,
            Err(e) => {
                conn.send(&encode(&Response::Error {
                    message: e.to_string(),
                }))?;
                continue;
            }
        };
        match request {
            Request::Hello {
                client: name,
                protocol: _,
                raw_sections,
            } => {
                client = name;
                payloads = Payloads::agreed(raw_sections);
                conn.send(&encode(&Response::HelloOk {
                    server: "reprocmp-server".to_owned(),
                    protocol: PROTOCOL_VERSION,
                    queue_capacity: server.queue().capacity() as u64,
                    raw_sections,
                }))?;
            }
            Request::Status { job, wait } => {
                match server.kept_status(job, wait) {
                    // Written from the table's own document and
                    // payload, outside the table's lock: the only copy
                    // of a result an answer makes is the frame.
                    Some((s, kept)) => {
                        let section = write_status_response(
                            &mut answer,
                            job,
                            s.state,
                            s.result.as_deref(),
                            kept.as_deref().map(Vec::as_slice),
                            s.error.as_deref(),
                            payloads,
                        );
                        let sent = conn.send_parts(&answer, section);
                        recycle(&mut answer);
                        sent?;
                    }
                    None => conn.send(&encode(&Response::Error {
                        message: format!("unknown job {job}"),
                    }))?,
                }
            }
            Request::Watch { job } => match server.job_journal(job) {
                Some((events, ledger)) => {
                    for event in &events {
                        conn.send(&encode(&Response::Event {
                            job,
                            seq: event.seq,
                            ts_ns: event.ts_ns(),
                            lane: event.lane.clone(),
                            kind: event.kind.type_name().to_owned(),
                        }))?;
                    }
                    let state = server
                        .kept_status(job, false)
                        .map_or(crate::proto::JobState::Done, |(s, _)| s.state);
                    conn.send(&encode(&Response::Done {
                        job,
                        state,
                        events_emitted: ledger.events_emitted,
                        events_written: ledger.events_written,
                        events_dropped: ledger.events_dropped,
                    }))?;
                }
                None => {
                    conn.send(&encode(&Response::Error {
                        message: format!("unknown job {job}"),
                    }))?;
                }
            },
            Request::Metrics => {
                let snapshot = server.sample_telemetry_now();
                conn.send(&encode(&Response::Telemetry {
                    snapshot: snapshot.to_value(),
                }))?;
            }
            Request::SubscribeTelemetry { max } => {
                // Stream the retained ring first, then live samples as
                // they land; `max == 0` runs until daemon shutdown. The
                // terminal `telemetry_end` frame is guaranteed even on
                // drain, so subscribers never hang on a stopping daemon.
                let mut sent: u64 = 0;
                let mut last_seq: u64 = 0;
                'stream: loop {
                    let batch = server.wait_telemetry_after(last_seq);
                    if batch.is_empty() {
                        break; // daemon stopping: no more samples will land
                    }
                    for snapshot in batch {
                        last_seq = snapshot.seq;
                        conn.send(&encode(&Response::Telemetry {
                            snapshot: snapshot.to_value(),
                        }))?;
                        sent += 1;
                        if max != 0 && sent >= max {
                            break 'stream;
                        }
                    }
                }
                conn.send(&encode(&Response::TelemetryEnd { snapshots: sent }))?;
            }
            Request::Shutdown => {
                // Ack first, then flag the daemon: the accept loop
                // drains in-flight jobs before exiting.
                conn.send(&encode(&Response::Accepted { job: 0 }))?;
                server.request_stop();
            }
            job_request => {
                let response = match JobSpec::from_request(job_request, section)
                    .expect("non-session verbs carry a job spec")
                {
                    Ok(spec) => match server.submit(&client, spec) {
                        Ok(job) => Response::Accepted { job },
                        Err(e @ AdmitError::Backpressure { .. })
                        | Err(e @ AdmitError::ShuttingDown) => Response::Rejected {
                            reason: e.to_string(),
                        },
                    },
                    Err(message) => Response::Error {
                        message: format!("bad job payload: {message}"),
                    },
                };
                conn.send(&encode(&response))?;
            }
        }
    }
    Ok(())
}

/// The TCP accept loop: binds, serves until a client sends `shutdown`
/// (or [`Server::request_stop`] fires), then drains the daemon.
#[derive(Debug)]
pub struct TcpTransport {
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpTransport {
    /// Binds; `127.0.0.1:0` picks an ephemeral port (see
    /// [`TcpTransport::addr`]).
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(TcpTransport { listener, addr })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accepts and serves connections until the server's stop flag is
    /// raised, then gracefully shuts the daemon down (drain + join).
    ///
    /// # Errors
    ///
    /// Listener-level failures; per-connection errors only drop that
    /// connection.
    pub fn run(&self, server: &Arc<Server>) -> std::io::Result<()> {
        // Non-blocking accept so the loop can observe the stop flag
        // without needing a wake-up connection.
        self.listener.set_nonblocking(true)?;
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut streams: Vec<TcpStream> = Vec::new();
        while !server.stop_requested() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    if let Ok(clone) = stream.try_clone() {
                        streams.push(clone);
                    }
                    let server = Arc::clone(server);
                    handlers.push(
                        std::thread::Builder::new()
                            .name("reprocmp-conn".to_owned())
                            .spawn(move || {
                                let mut conn = TcpConn::new(stream);
                                let _ = serve_connection(&server, &mut conn);
                            })
                            .expect("spawn handler"),
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        // Drain the daemon BEFORE joining handlers: blocked `status
        // --wait` / `watch` / telemetry subscribers need in-flight jobs
        // to finish (and the stop flag to propagate) so they can send
        // their terminal frames instead of deadlocking the join below.
        server.shutdown();
        // EOF-unblock handlers idling in `recv` on a quiet connection;
        // half-close only, so pending responses still flush out.
        for stream in &streams {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_carries_frames_both_ways_and_signals_eof() {
        let (mut a, mut b) = pair();
        a.send(b"ping").unwrap();
        assert_eq!(b.recv().unwrap().as_deref(), Some(&b"ping"[..]));
        b.send(b"pong").unwrap();
        assert_eq!(a.recv().unwrap().as_deref(), Some(&b"pong"[..]));
        drop(a);
        assert_eq!(b.recv().unwrap(), None, "peer drop is clean EOF");
    }

    #[test]
    fn a_connecting_client_disables_nagle_like_the_accept_side() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let conn = TcpConn::connect(listener.local_addr().unwrap()).unwrap();
        assert!(conn.stream.nodelay().unwrap());
    }
}
