//! Resident campaign service: a JSONL job protocol over stdio or a
//! Unix-domain socket, sharing one loaded database and one evaluation
//! cache across every job and client.
//!
//! The one-shot `campaign` CLI pays its dominant cost — loading the
//! NAS-Bench database and warming the evaluation cache — on every
//! invocation. This crate keeps that state resident: a [`CampaignServer`]
//! loads once, then accepts newline-delimited JSON job frames and streams
//! per-shard results back as they complete, so job N+1 warm-starts from
//! job N's cache entries even across clients.
//!
//! * [`protocol`] — the versioned wire format: request frames
//!   (`submit`/`ping`/`shutdown`), event frames
//!   (`job_submitted`/`job_started`/`shard_result`/`job_done`/`error`/`pong`),
//!   and the typed [`ProtocolError`] taxonomy with stable wire codes;
//! * [`job`] — [`JobSpec`]: the one description of a campaign — the
//!   validated scenario × strategy × seed grid, step budget, reward shaping
//!   and surrogate guidance that a `submit` frame and the `campaign` CLI's
//!   flags both ask for;
//! * [`server`] — [`CampaignServer`]: the runner thread, bounded job
//!   queue, per-session event sinks, and the stdio/Unix-socket frontends;
//! * [`signals`] — the SIGINT/SIGTERM shutdown flag (no libc dependency),
//!   polled by accept loops and the host binary's flush-on-exit path.
//!
//! # Examples
//!
//! A complete in-process session: submit one job, read the event stream.
//!
//! ```
//! use std::sync::Arc;
//! use codesign_core::CodesignSpace;
//! use codesign_engine::SharedEvalCache;
//! use codesign_nasbench::{Json, NasbenchDatabase};
//! use codesign_server::{CampaignServer, Event, JobSpec, Request, ServerConfig};
//!
//! let server = CampaignServer::start(
//!     CodesignSpace::with_max_vertices(3),
//!     Arc::new(NasbenchDatabase::exhaustive(3)),
//!     Arc::new(SharedEvalCache::new()),
//!     ServerConfig { workers: 2, queue_capacity: 4 },
//! );
//! let job = JobSpec::from_json(
//!     &Json::parse(r#"{"scenarios":["0"],"strategies":["random"],"seeds":[0],"steps":20}"#).unwrap(),
//! )
//! .unwrap();
//!
//! // Any BufRead/Write pair is a session; stdio and sockets just plug in.
//! let frames = format!("{}\n", Request::Submit(job).to_line());
//! # // Route the sink through a shared buffer so the doctest can read it.
//! # use std::sync::Mutex;
//! # #[derive(Clone)]
//! # struct Shared(Arc<Mutex<Vec<u8>>>);
//! # impl std::io::Write for Shared {
//! #     fn write(&mut self, d: &[u8]) -> std::io::Result<usize> {
//! #         self.0.lock().unwrap().extend_from_slice(d);
//! #         Ok(d.len())
//! #     }
//! #     fn flush(&mut self) -> std::io::Result<()> { Ok(()) }
//! # }
//! # let shared = Shared(Arc::new(Mutex::new(Vec::new())));
//! let sink = codesign_server::EventSink::new(Box::new(shared.clone()));
//! server.inner().serve_session(&mut std::io::Cursor::new(frames), &sink);
//! server.join();
//!
//! # let bytes = shared.0.lock().unwrap().clone();
//! let lines = String::from_utf8(bytes).unwrap();
//! let events: Vec<Event> =
//!     lines.lines().map(|l| Event::parse_line(l).unwrap()).collect();
//! assert!(matches!(events.first(), Some(Event::JobSubmitted { .. })));
//! assert!(matches!(events.last(), Some(Event::JobDone { .. })));
//! ```

pub mod job;
pub mod protocol;
pub mod server;
pub mod signals;

pub use job::JobSpec;
pub use protocol::{Event, ProtocolError, Request, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use server::{CampaignServer, EventSink, JobTicket, ServerConfig, ServerInner};
pub use signals::{install_shutdown_handler, request_shutdown, shutdown_requested};
