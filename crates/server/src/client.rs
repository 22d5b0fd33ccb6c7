//! A blocking client for the tilestore wire protocol.
//!
//! One [`Client`] owns one TCP connection and issues requests serially
//! (the protocol is strictly request/response per connection; open more
//! clients for concurrency). Typed errors mirror the wire's
//! [`crate::wire::ErrorCode`]s so callers can distinguish
//! "retry later" from "this request is wrong" without string matching.
//!
//! Cells always travel as binary parts: queries ask for them
//! (`"binary": true`) and inserts send them, so no result or payload is
//! hex-encoded or decoded here.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use tilestore_engine::{Array, QueryStats};
use tilestore_geometry::Domain;
use tilestore_rasql::Value;
use tilestore_testkit::json::FromJson;
use tilestore_testkit::{Json, Rng};

use crate::wire::{decode_message, read_frame, take_field, ErrorCode, Outgoing, Parts};

/// Everything that can go wrong with a remote request.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write).
    Io(std::io::Error),
    /// The server refused admission; retry after backoff.
    Busy(String),
    /// The request's deadline expired server-side.
    Deadline(String),
    /// The server is shutting down.
    Shutdown(String),
    /// The server rejected the request as malformed.
    BadRequest(String),
    /// The engine failed the operation.
    Engine(String),
    /// A cluster coordinator could not reach one of its shards; the message
    /// names the failed shard.
    ShardUnavailable(String),
    /// The answer would not fit in one frame; the message names its size
    /// and the limit.
    ResultTooLarge(String),
    /// The response violated the wire protocol (bad frame, id mismatch,
    /// missing fields).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Busy(m) => write!(f, "busy: {m}"),
            ClientError::Deadline(m) => write!(f, "deadline: {m}"),
            ClientError::Shutdown(m) => write!(f, "shutdown: {m}"),
            ClientError::BadRequest(m) => write!(f, "bad request: {m}"),
            ClientError::Engine(m) => write!(f, "engine: {m}"),
            ClientError::ShardUnavailable(m) => write!(f, "shard unavailable: {m}"),
            ClientError::ResultTooLarge(m) => write!(f, "result too large: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Client-side result alias.
pub type ClientResult<T> = Result<T, ClientError>;

/// A query result decoded from the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum RemoteValue {
    /// A dense array: its domain, per-cell byte width, and raw cell bytes
    /// (byte-identical to the in-process result).
    Array {
        /// Spatial domain of the result.
        domain: Domain,
        /// Bytes per cell.
        cell_size: usize,
        /// Row-major cell bytes.
        cells: Vec<u8>,
    },
    /// A scalar aggregate, reconstructed bit-exactly from its IEEE-754 bits.
    Number(f64),
    /// A counting aggregate.
    Count(u64),
    /// A boolean aggregate (`some_cells` / `all_cells`).
    Bool(bool),
}

impl RemoteValue {
    /// The value as the in-process executor returns it.
    ///
    /// # Errors
    /// An array whose cells do not fill its domain (never one this client
    /// decoded: it checks exactly that).
    pub fn into_value(self) -> tilestore_engine::Result<Value> {
        Ok(match self {
            RemoteValue::Array {
                domain,
                cell_size,
                cells,
            } => Value::Array(Array::from_bytes(domain, cell_size, cells)?),
            RemoteValue::Number(n) => Value::Number(n),
            RemoteValue::Count(c) => Value::Count(c),
            RemoteValue::Bool(b) => Value::Bool(b),
        })
    }
}

/// Retry behaviour for transient failures ([`ClientError::Busy`] and
/// transport errors). Off by default: retries re-send the request, which is
/// only safe when the caller knows the operation is idempotent (reads,
/// metadata) or tolerates re-execution. Delays grow exponentially from
/// `base_delay_ms` and are jittered by the deterministic testkit PRNG so a
/// thundering herd of clients desynchronizes without any wall-clock
/// dependence in tests.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries attempted after the first failure (0 = fail immediately).
    pub max_retries: u32,
    /// Delay before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Upper bound on any single delay, in milliseconds.
    pub max_delay_ms: u64,
    /// Seed for the jitter PRNG.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base_delay_ms: 10,
            max_delay_ms: 500,
            seed: 0x7269_6c65,
        }
    }
}

impl RetryPolicy {
    /// The jittered delay before retry number `attempt` (1-based):
    /// exponential growth capped at `max_delay_ms`, then scaled by a uniform
    /// factor in `[0.5, 1.0]` so synchronized clients spread out.
    fn delay(&self, attempt: u32, rng: &mut Rng) -> Duration {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
            .min(self.max_delay_ms)
            .max(1);
        let jittered = exp / 2 + rng.gen_range(0..=exp / 2);
        Duration::from_millis(jittered)
    }
}

/// A blocking connection to a tilestore server.
pub struct Client {
    reader: BufReader<TcpStream>,
    /// Unbuffered: every request is one vectored write already.
    writer: TcpStream,
    /// The server's address, kept for transparent reconnects.
    addr: SocketAddr,
    next_id: u64,
    /// Deadline attached to every request, in ms (None = server default).
    deadline_ms: Option<u64>,
    /// The server-assigned request id echoed on the last response (0 until
    /// a response carried one).
    last_request_id: u64,
    /// Transparent retry/reconnect policy; `None` surfaces every failure.
    retry: Option<RetryPolicy>,
    /// Jitter source for retry backoff.
    rng: Rng,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            addr: peer,
            next_id: 1,
            deadline_ms: None,
            last_request_id: 0,
            retry: None,
            rng: Rng::seed_from_u64(RetryPolicy::default().seed),
        })
    }

    /// Sets the per-request deadline attached to subsequent requests
    /// (`Some(0)` forces a deterministic deadline rejection; `None` uses
    /// the server's default).
    pub fn set_deadline_ms(&mut self, deadline_ms: Option<u64>) {
        self.deadline_ms = deadline_ms;
    }

    /// Enables (or with `None` disables) transparent retry: `busy`
    /// responses are retried after jittered backoff on the same connection,
    /// and transport failures (connection reset, server restart) trigger a
    /// reconnect to the original address before the retry. Bounded by the
    /// policy's `max_retries`; the final error surfaces unchanged.
    pub fn set_retry(&mut self, policy: Option<RetryPolicy>) {
        if let Some(p) = &policy {
            self.rng = Rng::seed_from_u64(p.seed);
        }
        self.retry = policy;
    }

    /// Drops the current connection and dials the original address again.
    ///
    /// # Errors
    /// Connection failures.
    pub fn reconnect(&mut self) -> ClientResult<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = stream;
        Ok(())
    }

    /// The request id the server assigned to (and echoed on) the most
    /// recent response; `0` before the first response. Request ids tag
    /// every trace span and slow-query entry the request produced
    /// server-side, so this is the correlation key for `top` and exported
    /// trace JSONL.
    #[must_use]
    pub fn last_request_id(&self) -> u64 {
        self.last_request_id
    }

    /// Sends one request object and returns the `result` payload.
    fn call(&mut self, op: &str, fields: Vec<(&str, Json)>) -> ClientResult<Json> {
        self.exchange(op, &fields, &[]).map(|(result, _)| result)
    }

    /// Sends one request object with `parts` and returns the `result`
    /// payload and the response's parts, applying the retry policy (if
    /// any): `busy` retries on the same connection, transport errors
    /// reconnect first. Non-transient failures (bad request, engine,
    /// deadline, shutdown) surface immediately.
    fn exchange(
        &mut self,
        op: &str,
        fields: &[(&str, Json)],
        parts: &[&[u8]],
    ) -> ClientResult<(Json, Parts)> {
        let Some(policy) = self.retry.clone() else {
            return self.exchange_once(op, fields, parts);
        };
        let mut attempt = 0u32;
        loop {
            let err = match self.exchange_once(op, fields, parts) {
                Ok(v) => return Ok(v),
                Err(e @ (ClientError::Busy(_) | ClientError::Io(_)))
                    if attempt < policy.max_retries =>
                {
                    e
                }
                Err(e) => return Err(e),
            };
            attempt += 1;
            std::thread::sleep(policy.delay(attempt, &mut self.rng));
            if matches!(err, ClientError::Io(_)) {
                // Reconnect failures burn a retry each; the last one's error
                // is what the caller sees.
                if let Err(re) = self.reconnect() {
                    if attempt >= policy.max_retries {
                        return Err(re);
                    }
                }
            }
        }
    }

    /// One request/response exchange, no retries.
    fn exchange_once(
        &mut self,
        op: &str,
        fields: &[(&str, Json)],
        parts: &[&[u8]],
    ) -> ClientResult<(Json, Parts)> {
        let id = self.next_id;
        self.next_id += 1;
        let mut all = vec![("id", Json::UInt(id)), ("op", Json::Str(op.to_string()))];
        if let Some(ms) = self.deadline_ms {
            all.push(("deadline_ms", Json::UInt(ms)));
        }
        all.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
        Outgoing::new(Json::obj(all), parts).write_to(&mut self.writer)?;
        let frame = read_frame(&mut self.reader)?.ok_or_else(|| {
            // A clean close between frames is a transport failure from the
            // caller's perspective: the request got no answer. Classifying
            // it as `Io` lets the retry policy reconnect.
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "server closed the connection",
            ))
        })?;
        let (mut resp, parts) = decode_message(frame)
            .map_err(|e| ClientError::Protocol(format!("bad response frame: {e}")))?;
        if let Some(rid) = resp.get("request_id").and_then(Json::as_u64) {
            self.last_request_id = rid;
        }
        let got_id = resp.get("id").and_then(Json::as_u64).unwrap_or(0);
        if got_id != id {
            return Err(ClientError::Protocol(format!(
                "response id {got_id} does not match request id {id}"
            )));
        }
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            return take_field(&mut resp, "result")
                .map(|result| (result, parts))
                .ok_or_else(|| ClientError::Protocol("ok response without result".to_string()));
        }
        let message = resp
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let code = resp
            .get("error")
            .and_then(Json::as_str)
            .and_then(ErrorCode::parse);
        Err(match code {
            Some(ErrorCode::Busy) => ClientError::Busy(message),
            Some(ErrorCode::Deadline) => ClientError::Deadline(message),
            Some(ErrorCode::Shutdown) => ClientError::Shutdown(message),
            Some(ErrorCode::BadRequest) => ClientError::BadRequest(message),
            Some(ErrorCode::Engine) => ClientError::Engine(message),
            Some(ErrorCode::ShardUnavailable) => ClientError::ShardUnavailable(message),
            Some(ErrorCode::ResultTooLarge) => ClientError::ResultTooLarge(message),
            None => ClientError::Protocol(format!("unrecognized error response: {message}")),
        })
    }

    /// Round-trip liveness check.
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn ping(&mut self) -> ClientResult<()> {
        let r = self.call("ping", Vec::new())?;
        if r.as_str() == Some("pong") {
            Ok(())
        } else {
            Err(ClientError::Protocol("ping did not pong".to_string()))
        }
    }

    /// Executes a rasql query and decodes the result value.
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn query(&mut self, q: &str) -> ClientResult<RemoteValue> {
        self.query_value(q, None).map(|(value, _)| value)
    }

    /// Executes a rasql query against a pinned snapshot (see
    /// [`Client::pin`]) and returns the value with the server's execution
    /// statistics — one shard's answer to a cluster coordinator.
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn query_pinned(&mut self, q: &str, pin: u64) -> ClientResult<(RemoteValue, QueryStats)> {
        let (value, result) = self.query_value(q, Some(pin))?;
        let stats = result
            .get("stats")
            .and_then(|s| QueryStats::from_json(s).ok())
            .unwrap_or_default();
        Ok((value, stats))
    }

    /// The one query exchange behind [`Client::query`] and
    /// [`Client::query_pinned`]: cells come back as a binary part. Returns
    /// the value and the whole result document; only a caller that wants
    /// the statistics decodes them.
    fn query_value(&mut self, q: &str, pin: Option<u64>) -> ClientResult<(RemoteValue, Json)> {
        let mut fields = vec![
            ("q", Json::Str(q.to_string())),
            ("binary", Json::Bool(true)),
        ];
        if let Some(pin) = pin {
            fields.push(("pin", Json::UInt(pin)));
        }
        let (result, mut parts) = self.exchange("query", &fields, &[])?;
        let value = result
            .get("value")
            .ok_or_else(|| ClientError::Protocol("query result lacks value".to_string()))?;
        let value = decode_value(value, &mut parts)?;
        Ok((value, result))
    }

    /// Executes a rasql query and returns the raw result JSON (value and
    /// stats) — the JSON debug surface: array cells come back hex-encoded
    /// in `cells_hex`.
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn query_raw(&mut self, q: &str) -> ClientResult<Json> {
        self.call("query", vec![("q", Json::Str(q.to_string()))])
    }

    /// Inserts an array into an object, its cells sent as a binary part.
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn insert(&mut self, object: &str, array: &Array) -> ClientResult<Json> {
        let fields = [
            ("object", Json::Str(object.to_string())),
            ("domain", Json::Str(array.domain().to_string())),
            ("cells_part", Json::UInt(0)),
        ];
        self.exchange("insert", &fields, &[array.bytes()])
            .map(|(result, _)| result)
    }

    /// Re-tiles an object with a textual scheme spec (see
    /// `tilestore_tiling::parse_scheme_spec`).
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn retile(&mut self, object: &str, scheme_spec: &str) -> ClientResult<Json> {
        self.call(
            "retile",
            vec![
                ("object", Json::Str(object.to_string())),
                ("scheme", Json::Str(scheme_spec.to_string())),
            ],
        )
    }

    /// Fetches one object's metadata.
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn info(&mut self, object: &str) -> ClientResult<Json> {
        self.call("info", vec![("object", Json::Str(object.to_string()))])
    }

    /// Fetches server-wide statistics (objects, I/O, metrics).
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn stats(&mut self) -> ClientResult<Json> {
        self.call("stats", Vec::new())
    }

    /// Saves and integrity-checks the server's database directory.
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn fsck(&mut self) -> ClientResult<Json> {
        self.call("fsck", Vec::new())
    }

    /// Fetches the full live metrics registry (counters, gauges and
    /// histogram snapshots with p50/p95/p99).
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn metrics(&mut self) -> ClientResult<Json> {
        self.call("metrics", Vec::new())
    }

    /// Fetches the server's health report (status, epoch, active
    /// snapshots, in-flight requests, failure counters).
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn health(&mut self) -> ClientResult<Json> {
        self.call("health", Vec::new())
    }

    /// Fetches the most recent slow-query entries (newest first).
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn slow_queries(&mut self, limit: usize) -> ClientResult<Json> {
        self.call("slow", vec![("limit", Json::UInt(limit as u64))])
    }

    /// Runs `EXPLAIN [ANALYZE] <query>` server-side and returns the raw
    /// report JSON (`plan` and, with `analyze`, measured statistics).
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn explain(&mut self, query: &str, analyze: bool) -> ClientResult<Json> {
        let stmt = if analyze {
            format!("EXPLAIN ANALYZE {query}")
        } else {
            format!("EXPLAIN {query}")
        };
        self.call("query", vec![("q", Json::Str(stmt))])
    }

    /// Pins the server's current snapshot, returning `(pin id, epoch)`. The
    /// snapshot stays readable server-side — across concurrent writes and
    /// re-tiles — until [`Client::unpin`] or this connection closes. This is
    /// the per-shard half of the cluster's epoch-agreement handshake.
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn pin(&mut self) -> ClientResult<(u64, u64)> {
        let r = self.call("pin", Vec::new())?;
        let pin = r
            .get("pin")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("pin response lacks pin id".to_string()))?;
        let epoch = r
            .get("epoch")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("pin response lacks epoch".to_string()))?;
        Ok((pin, epoch))
    }

    /// Releases a pinned snapshot.
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn unpin(&mut self, pin: u64) -> ClientResult<()> {
        self.call("unpin", vec![("pin", Json::UInt(pin))])
            .map(|_| ())
    }

    /// Runs `EXPLAIN <query>` against a pinned snapshot and returns the
    /// raw report JSON.
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn explain_pinned(&mut self, query: &str, pin: u64) -> ClientResult<Json> {
        self.call(
            "query",
            vec![
                ("q", Json::Str(format!("EXPLAIN {query}"))),
                ("pin", Json::UInt(pin)),
            ],
        )
    }

    /// Fetches one object's metadata as seen by a pinned snapshot.
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn info_pinned(&mut self, object: &str, pin: u64) -> ClientResult<Json> {
        self.call(
            "info",
            vec![
                ("object", Json::Str(object.to_string())),
                ("pin", Json::UInt(pin)),
            ],
        )
    }

    /// Asks the server to shut down gracefully (drain, then save).
    ///
    /// # Errors
    /// Any [`ClientError`].
    pub fn shutdown_server(&mut self) -> ClientResult<()> {
        self.call("shutdown", Vec::new()).map(|_| ())
    }
}

/// Decodes the `value` object of a query response; an array's cells are
/// the part it names, moved out of `parts` once they fill its domain.
fn decode_value(v: &Json, parts: &mut Parts) -> ClientResult<RemoteValue> {
    let proto = |m: &str| ClientError::Protocol(m.to_string());
    match v.get("kind").and_then(Json::as_str) {
        Some("array") => {
            let domain = v
                .get("domain")
                .and_then(Json::as_str)
                .and_then(|s| s.parse::<Domain>().ok())
                .ok_or_else(|| proto("array value lacks a valid domain"))?;
            let cell_size = v
                .get("cell_size")
                .and_then(Json::as_u64)
                .and_then(|s| usize::try_from(s).ok())
                .filter(|&s| s > 0)
                .ok_or_else(|| proto("array value lacks a positive cell_size"))?;
            let want = domain.size_bytes(cell_size).ok();
            let cells = parts
                .take_cells(v, |len| match want {
                    Some(want) if want == len as u64 => Ok(()),
                    _ => Err(format!(
                        "a {len}-byte part does not hold {domain} in {cell_size}-byte cells"
                    )),
                })
                .map_err(ClientError::Protocol)?;
            Ok(RemoteValue::Array {
                domain,
                cell_size,
                cells,
            })
        }
        Some("number") => {
            let bits = v
                .get("bits")
                .and_then(Json::as_u64)
                .ok_or_else(|| proto("number value lacks bits"))?;
            Ok(RemoteValue::Number(f64::from_bits(bits)))
        }
        Some("count") => v
            .get("value")
            .and_then(Json::as_u64)
            .map(RemoteValue::Count)
            .ok_or_else(|| proto("count value lacks value")),
        Some("bool") => v
            .get("value")
            .and_then(Json::as_bool)
            .map(RemoteValue::Bool)
            .ok_or_else(|| proto("bool value lacks value")),
        _ => Err(proto("unknown value kind")),
    }
}
