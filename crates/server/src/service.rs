//! The backend seam of the serving core.
//!
//! [`serve_backend`](crate::serve_backend) owns everything a network front
//! door does — sockets, framing, admission, deadlines, request ids, traces,
//! the slow-query log — and asks a [`Service`] for the answers. A single
//! engine ([`SharedDatabase`](tilestore_engine::SharedDatabase), see
//! `node.rs`) and a cluster coordinator (`tilestore-cluster`) are the two
//! implementations, so both are served by the same loop and speak the same
//! ops plane.

use std::path::Path;

use tilestore_engine::{Array, QueryStats};
use tilestore_rasql::{QueryError, Value};
use tilestore_testkit::Json;

use crate::wire::{value_to_json, value_to_parts, ErrorCode};

/// A typed failure: becomes the `error`/`message` pair of the response.
#[derive(Debug)]
pub struct ServiceError {
    /// The failure class clients match on.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ServiceError {
    /// A failure of class `code`.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ServiceError {
            code,
            message: message.into(),
        }
    }

    /// The request itself is wrong.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::BadRequest, message)
    }

    /// The backend rejected or failed the operation.
    pub fn engine(message: impl ToString) -> Self {
        Self::new(ErrorCode::Engine, message.to_string())
    }

    /// No one answers `op`: how [`Service::backend_op`] ends.
    #[must_use]
    pub fn unknown_op(op: &str) -> Self {
        Self::bad_request(format!("unknown op {op:?}"))
    }
}

/// One rule for a failed statement on every endpoint: a statement that does
/// not lex, parse or type-check is the request's fault; only a failure of
/// the engine running it is the backend's.
impl From<QueryError> for ServiceError {
    fn from(e: QueryError) -> Self {
        let code = match e {
            QueryError::Engine(_) => ErrorCode::Engine,
            QueryError::Lex { .. } | QueryError::Parse { .. } | QueryError::Semantic(_) => {
                ErrorCode::BadRequest
            }
        };
        Self::new(code, e.to_string())
    }
}

/// What every [`Service`] method returns.
pub type ServiceResult<T> = Result<T, ServiceError>;

/// The facts of one admitted request a backend may need beyond the typed
/// arguments of the method it arrives through.
pub struct Call<'a> {
    /// The whole request object, for backend-specific fields (`pin`).
    pub req: &'a Json,
    /// The id this request is traced and logged under.
    pub request_id: u64,
    /// The request's deadline budget, if it has one. Never `Some(0)`: an
    /// expired request is refused before it reaches the backend.
    pub deadline_ms: Option<u64>,
    /// The directory the endpoint saves into, if it is durable.
    pub dir: Option<&'a Path>,
    /// Whether the request asked (`"binary": true`) for array cells as a
    /// binary part of the response instead of hex in its JSON.
    pub binary: bool,
}

/// A statement's answer: the `result` payload plus what the slow-query log
/// records about it.
pub struct Answer {
    /// The response's `result` field.
    pub result: Json,
    /// The (newest) catalog epoch the statement observed.
    pub epoch: u64,
    /// Executor counters, when the statement executed.
    pub stats: Option<QueryStats>,
    /// An array result's cells when they travel as the response's part 0,
    /// which `result` then names.
    pub cells: Option<Vec<u8>>,
}

impl Answer {
    /// The answer of a statement that produced `value` at `epoch`, encoded
    /// the way `call` asked: cells moved out of an array result into
    /// [`Answer::cells`] for a binary request, hex in `result` otherwise.
    #[must_use]
    pub fn value(value: Value, stats: QueryStats, epoch: u64, call: &Call<'_>) -> Answer {
        let (result, cells) = if call.binary {
            value_to_parts(value, &stats, epoch)
        } else {
            (value_to_json(&value, &stats, epoch), None)
        };
        Answer {
            result,
            epoch,
            stats: Some(stats),
            cells,
        }
    }
}

/// Front-door state folded into a backend's `health` report.
pub struct Serving {
    /// Requests admitted and not yet answered (this one included).
    pub inflight: u64,
    /// Entries in the slow-query ring.
    pub slow_queries: u64,
    /// Whether the endpoint saves on shutdown.
    pub durable: bool,
}

/// What the serving core needs from the store behind it. `ping`,
/// `shutdown`, `metrics` and `slow` never reach the backend.
pub trait Service: Send + Sync + 'static {
    /// Per-connection state: a default one is created when a session
    /// starts and dropped with it. Only that session's thread touches it.
    type Session: Default;

    /// Executes one rasql statement (`query`).
    ///
    /// # Errors
    /// Parse, semantic and execution failures.
    fn query(&self, session: &mut Self::Session, q: &str, call: &Call<'_>)
        -> ServiceResult<Answer>;

    /// Inserts `array` into `object`; the core has already validated the
    /// payload against the domain.
    ///
    /// # Errors
    /// Unknown objects, type mismatches, storage failures.
    fn insert(&self, object: &str, array: &Array) -> ServiceResult<Json>;

    /// Applies a retile spec (scheme | `--from-log[:..]` | `--defrag[:..]`).
    ///
    /// # Errors
    /// Unparseable or unsupported specs, storage failures.
    fn retile(&self, object: &str, spec: &str) -> ServiceResult<Json>;

    /// One object's metadata.
    ///
    /// # Errors
    /// Unknown objects.
    fn info(
        &self,
        session: &mut Self::Session,
        object: &str,
        call: &Call<'_>,
    ) -> ServiceResult<Json>;

    /// The store-wide report.
    ///
    /// # Errors
    /// Backend failures while collecting it.
    fn stats(&self) -> ServiceResult<Json>;

    /// A cheap liveness report; must include a `status` of `ok` or
    /// `degraded` and the three `serving` values.
    fn health(&self, serving: Serving) -> Json;

    /// Ops only this backend answers; every op the core does not know ends
    /// up here.
    ///
    /// # Errors
    /// [`ServiceError::unknown_op`] for an op the backend does not know
    /// either.
    fn backend_op(
        &self,
        session: &mut Self::Session,
        op: &str,
        call: &Call<'_>,
    ) -> ServiceResult<Json>;

    /// The durable commit that ends a graceful shutdown.
    ///
    /// # Errors
    /// The persistence failure.
    fn save(&self, dir: &Path) -> ServiceResult<()>;
}
