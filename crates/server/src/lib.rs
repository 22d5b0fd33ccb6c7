//! A zero-dependency network serving layer for tilestore.
//!
//! The engine's query path is a library call; this crate puts it behind a
//! socket so many clients can share one database process. Four layers:
//!
//! * [`wire`] — the protocol: `[u32 LE length][payload]` frames read in
//!   bounded chunks and written in one vectored write, the payload either
//!   compact JSON (cells hex-encoded) or a small JSON header followed by
//!   raw binary parts (cells as they are in memory); typed error codes;
//!   array results byte-identical to the in-process path either way;
//! * [`server`] — the one serving core, [`serve_backend`] /
//!   [`ServerHandle`]: a `std::net` TCP accept loop, one session thread per
//!   connection that runs its requests inline, bounded admission with typed
//!   `busy` backpressure, per-request deadlines, request ids and
//!   `"trace": true`, the slow-query log, the shared op table (`ping`,
//!   `shutdown`, `query`, `insert`, `retile`, `info`, `stats`, `health`,
//!   `metrics`, `slow`), and graceful shutdown that drains in-flight
//!   requests and ends with the backend's atomic save;
//! * [`service`] — [`Service`], what the core asks of the store behind it.
//!   A [`SharedDatabase`](tilestore_engine::SharedDatabase) implements it
//!   here (adding `pin`, `unpin`, `fsck`) and [`serve`] is the wrapper that
//!   gives it a tile-fetch [`ThreadPool`](tilestore_exec::ThreadPool);
//!   `tilestore-cluster` implements it for its coordinator;
//! * [`client`] — [`Client`]: a blocking connection with typed
//!   [`ClientError`]s and bit-exact value decoding ([`RemoteValue`]); its
//!   queries and inserts always move cells as binary parts.
//!
//! Everything is `std` only — no async runtime, no serialization crate.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod client;
mod node;
pub mod server;
pub mod service;
pub mod slowlog;
pub mod wire;

pub use client::{Client, ClientError, ClientResult, RemoteValue, RetryPolicy};
pub use server::{serve, serve_backend, ServerConfig, ServerHandle};
pub use service::{Answer, Call, Service, ServiceError, ServiceResult, Serving};
pub use slowlog::{SlowQueryEntry, SlowQueryLog};
pub use wire::{ErrorCode, MAX_FRAME};
