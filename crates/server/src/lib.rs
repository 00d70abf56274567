//! Comparison-as-a-service: a long-running daemon that owns the
//! capture [`ChunkStore`] and serves ingest/compare/materialize jobs
//! to many concurrent clients.
//!
//! # Architecture
//!
//! ```text
//!  clients ──frames──▶ transport ──▶ dispatch ──▶ JobQueue (DRR +
//!   (TCP /              (one loop     (proto)      admission control)
//!    in-process)         per conn)                      │ pop
//!                                                       ▼
//!                                                  worker pool
//!                                                       │ execute_spec
//!                                                       ▼
//!                                     ChunkStore + CompareEngine
//!                                     (exclusive advisory lock)
//! ```
//!
//! * [`proto`] — the length-prefixed JSON wire protocol, evolvable
//!   additively (decoders ignore unknown fields), with payloads as raw
//!   sections in sessions whose `hello` agreed to them;
//! * [`queue`] — deficit-round-robin fair queuing with a hard
//!   admission bound (backpressure instead of unbounded backlog);
//! * [`server`] — the daemon: exclusive store ownership, the worker
//!   pool, and the deterministic per-job execution path
//!   ([`execute_spec`]) shared with the offline oracle;
//! * [`transport`] — TCP and in-process connection plumbing feeding
//!   one dispatch loop;
//! * [`client`] — the typed client library the CLI verbs build on.
//!
//! # The concurrency-equivalence oracle
//!
//! The crate's headline guarantee, proven by `tests/server_oracle.rs`:
//! any mix of concurrent clients produces **byte-identical** job
//! results to the same jobs run serially offline, because every job
//! executes on its own simulated timeline with its own journal and
//! cache, against a store whose contents are the only shared state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod queue;
pub mod server;
pub mod transport;

pub use client::{
    ClientError, ClientResult, RemoteStatus, ServerClient, ServerInfo, WatchSummary, WatchedEvent,
};
pub use proto::{JobState, ObjectRef, Payloads, ProtoError, Request, Response, PROTOCOL_VERSION};
pub use queue::{AdmitError, JobQueue, QueueStats, QueuedJob};
pub use server::{
    execute_spec, JobOutcome, JobSpec, JobStatus, Server, ServerConfig, ServerError, ServerResult,
};
pub use transport::{pair, serve_connection, ChannelConn, Conn, TcpConn, TcpTransport};

#[doc(no_inline)]
pub use reprocmp_store::ChunkStore;
