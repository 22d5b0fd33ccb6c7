//! The serving core: one TCP accept loop, per-connection sessions, one op
//! table — generic over the [`Service`] that answers.
//!
//! Architecture (one box per thread kind):
//!
//! ```text
//! accept thread ──spawns──▶ connection threads ──scatter──▶ executor workers
//!   (nonblocking poll)        (frame parse, admission,        (tile fetches of
//!    joins conns on            deadline check, the request     the requests the
//!    shutdown, final save)     itself, response write)         sessions run)
//! ```
//!
//! A request executes **inline on its connection thread**: the session that
//! parsed the frame runs the op and writes the response, so a request costs
//! no queue hop and no cross-thread wake-up. The executor pool (`workers`)
//! only parallelizes the tile fetches inside a request; the scoped
//! scheduler's caller participation means a session makes progress even
//! when every worker is busy.
//!
//! **Backpressure**: at most `max_inflight` requests execute at once, over
//! all connections; the next one is refused with a typed `busy` response
//! instead of queueing without bound (a slow consumer learns immediately,
//! instead of timing out behind an invisible queue).
//!
//! **Deadlines**: each request carries (or inherits) a budget measured from
//! receipt; one that is already spent when the request is admitted answers
//! `deadline` without touching the backend, and the backend hands the
//! budget on to whatever it calls (a coordinator's remote shards).
//!
//! **Graceful shutdown**: the flag stops the accept loop and makes idle
//! connections close; a connection mid-request finishes it and writes the
//! response, one stalled mid-frame is dropped after a grace period. The
//! accept thread joins every connection (the drain), then asks the backend
//! for a final atomic save so a clean `fsck` is guaranteed after shutdown.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tilestore_engine::{Array, SharedDatabase};
use tilestore_exec::ThreadPool;
use tilestore_geometry::Domain;
use tilestore_obs::Counter;
use tilestore_storage::PageStore;
use tilestore_testkit::{Json, ToJson};

use crate::service::{Answer, Call, Service, ServiceError, ServiceResult, Serving};
use crate::slowlog::{SlowQueryEntry, SlowQueryLog};
use crate::wire::{
    decode_message, err_response, hex_decode, ok_response, read_frame_into, with_field,
    with_request_id, ErrorCode, Outgoing, Parts, MAX_FRAME,
};

/// How often blocked reads and the accept loop re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Timeout rounds tolerated for a frame left incomplete after shutdown
/// began (~5 s) before the connection is dropped.
const SHUTDOWN_STALL_ROUNDS: u32 = 100;

/// Tuning knobs of a serving endpoint.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads of the tile-fetch executor [`serve`] installs on the
    /// database. Requests do not run on it, so it does not bound them; a
    /// coordinator brings its own scatter pool and ignores this.
    pub workers: usize,
    /// Maximum concurrently executing requests; the next is refused `busy`.
    pub max_inflight: usize,
    /// Deadline applied to requests that carry none, in milliseconds
    /// (0 = no default deadline).
    pub default_deadline_ms: u64,
    /// Statements whose wall-clock time (receipt to completion) reaches
    /// this many milliseconds land in the slow-query log (`0` logs every
    /// statement).
    pub slow_query_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            max_inflight: 64,
            default_deadline_ms: 30_000,
            slow_query_ms: 500,
        }
    }
}

/// Handle to a running server: its bound address and shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0` requests).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown without waiting for the drain.
    pub fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the server to exit (drain + final save). Returns when the
    /// accept thread has finished; trigger shutdown first (or via a client's
    /// `shutdown` request) or this blocks until one arrives.
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests, save.
    pub fn shutdown(self) {
        self.trigger_shutdown();
        self.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Everything the sessions of one endpoint share.
struct Core<B: Service> {
    backend: Arc<B>,
    dir: Option<PathBuf>,
    shutdown: Arc<AtomicBool>,
    inflight: AtomicUsize,
    max_inflight: usize,
    default_deadline_ms: u64,
    requests: Arc<Counter>,
    busy_rejections: Arc<Counter>,
    deadline_rejections: Arc<Counter>,
    /// Monotonic request-id source, shared by every connection so ids are
    /// unique server-wide within a process lifetime.
    next_request: AtomicU64,
    slow_log: SlowQueryLog,
}

/// An admitted request's claim on one of the `max_inflight` slots.
struct Slot<'a>(&'a AtomicUsize);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Starts serving `db` on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
/// port). `dir` is the database directory for the final save and `fsck`
/// requests; pass `None` for purely in-memory serving.
///
/// A pool of `config.workers` threads is installed as the database's
/// executor, so queries served here parallelize their tile fetches.
///
/// # Errors
/// Socket bind/configuration errors.
pub fn serve<S: PageStore + 'static>(
    db: SharedDatabase<S>,
    dir: Option<PathBuf>,
    addr: &str,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    db.set_executor(Arc::new(ThreadPool::new(config.workers)));
    serve_backend(Arc::new(db), dir, addr, &config)
}

/// Starts serving any [`Service`] on `addr`: the loop behind [`serve`] and
/// `tilestore_cluster::serve_cluster`. `dir` is where the slow-query log is
/// written and what the backend's shutdown save is given.
///
/// # Errors
/// Socket bind/configuration errors.
pub fn serve_backend<B: Service>(
    backend: Arc<B>,
    dir: Option<PathBuf>,
    addr: &str,
    config: &ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    // Register the engine's hot instruments up front: `metrics` then lists
    // the same names on every endpoint, including a coordinator of remote
    // shards whose own process never runs an engine query.
    tilestore_obs::hot();
    let reg = tilestore_obs::metrics();
    let core = Arc::new(Core {
        backend,
        slow_log: SlowQueryLog::new(config.slow_query_ms, dir.as_deref()),
        dir,
        shutdown: Arc::clone(&shutdown),
        inflight: AtomicUsize::new(0),
        max_inflight: config.max_inflight.max(1),
        default_deadline_ms: config.default_deadline_ms,
        requests: reg.counter("server.requests"),
        busy_rejections: reg.counter("server.busy_rejections"),
        deadline_rejections: reg.counter("server.deadline_rejections"),
        next_request: AtomicU64::new(1),
    });
    let connections = reg.gauge("server.connections");
    let save_errors = reg.counter("server.save_errors");
    let thread = std::thread::Builder::new()
        .name("tilestore-accept".to_string())
        .spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            while !core.shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let core = Arc::clone(&core);
                        connections.add(1);
                        let conn_gauge = Arc::clone(&connections);
                        let handle = std::thread::Builder::new()
                            .name("tilestore-conn".to_string())
                            .spawn(move || {
                                core.connection_loop(stream);
                                conn_gauge.add(-1);
                            });
                        match handle {
                            Ok(h) => conns.push(h),
                            Err(_) => connections.add(-1),
                        }
                        // Reap finished sessions so the list stays bounded.
                        conns.retain(|h| !h.is_finished());
                    }
                    Err(_) => std::thread::sleep(POLL_INTERVAL),
                }
            }
            // Drain: every session finishes its in-flight request and exits.
            for h in conns {
                let _ = h.join();
            }
            // Final durable commit so a post-shutdown fsck comes back clean.
            if let Some(dir) = &core.dir {
                if core.backend.save(dir).is_err() {
                    save_errors.inc();
                }
            }
        })?;
    Ok(ServerHandle {
        addr: local,
        shutdown,
        thread: Some(thread),
    })
}

/// Reads one frame, polling the shutdown flag between read timeouts.
/// `Ok(None)` means the session should end: peer EOF, or shutdown observed
/// while no frame was in progress (or a frame stalled past the shutdown
/// grace period).
fn read_frame_interruptible(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
) -> std::io::Result<Option<Vec<u8>>> {
    let mut stalled = 0u32;
    let mut payload = Vec::new();
    let got = read_frame_into(stream, &mut payload, |in_frame, _timeout| {
        if !shutdown.load(Ordering::SeqCst) {
            return Ok(true);
        }
        stalled += 1;
        Ok(in_frame && stalled <= SHUTDOWN_STALL_ROUNDS)
    })?;
    Ok(got.then_some(payload))
}

impl<B: Service> Core<B> {
    /// One client session: read frame → admit → execute → respond.
    fn connection_loop(&self, mut stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
        let _ = stream.set_nodelay(true);
        let mut session = B::Session::default();
        loop {
            let frame = match read_frame_interruptible(&mut stream, &self.shutdown) {
                Ok(Some(f)) => f,
                Ok(None) | Err(_) => return,
            };
            let received = Instant::now();
            self.requests.inc();
            let (response, cells) = match decode_message(frame) {
                Ok((req, mut parts)) => self.dispatch(&mut session, &req, &mut parts, received),
                Err(e) => {
                    let message = format!("malformed frame: {e}");
                    (err_response(0, ErrorCode::BadRequest, &message), None)
                }
            };
            if respond(&mut stream, response, cells).is_err() {
                return;
            }
        }
    }

    /// Request id, control plane, admission, trace scope and response
    /// envelope for one decoded request; beside the envelope, the cells its
    /// result names as part 0, if any.
    fn dispatch(
        &self,
        session: &mut B::Session,
        req: &Json,
        parts: &mut Parts,
        received: Instant,
    ) -> (Json, Option<Vec<u8>>) {
        let id = req.get("id").and_then(Json::as_u64).unwrap_or(0);
        let Some(op) = req.get("op").and_then(Json::as_str) else {
            return (err_response(id, ErrorCode::BadRequest, "missing op"), None);
        };
        // Every request gets a server-wide request id for tracing and the
        // slow-query log; a client that supplies a nonzero `request_id`
        // (e.g. to correlate across services) keeps it. The id is echoed on
        // every response, including refusals.
        let rid = req
            .get("request_id")
            .and_then(Json::as_u64)
            .filter(|&r| r != 0)
            .unwrap_or_else(|| self.next_request.fetch_add(1, Ordering::Relaxed));
        // Shutdown is control-plane: always admitted, so the response is
        // written before the session starts winding down.
        if op == "shutdown" {
            self.shutdown.store(true, Ordering::SeqCst);
            let done = ok_response(id, Json::Str("shutting down".to_string()));
            return (with_request_id(done, rid), None);
        }
        // When the request asks for its span tree back, make sure the tracer
        // is collecting (it stays enabled afterwards; the ring is bounded).
        let want_trace = req.get("trace").and_then(Json::as_bool) == Some(true);
        if want_trace && !tilestore_obs::tracer().is_enabled() {
            tilestore_obs::tracer().enable(4096);
        }
        let outcome = self.admit(req, received).and_then(|(_slot, deadline_ms)| {
            // The session enters the request's trace scope: every span and
            // event below — including tile fetches scattered onto the
            // executor — carries this request id.
            let _scope = tilestore_obs::request_scope(rid);
            let _span = tilestore_obs::tracer()
                .span_with("request", || format!("op={op} request_id={rid}"));
            let call = Call {
                req,
                request_id: rid,
                deadline_ms,
                dir: self.dir.as_deref(),
                binary: req.get("binary").and_then(Json::as_bool) == Some(true),
            };
            self.execute(session, op, &call, parts, received)
        });
        let (mut response, cells) = match outcome {
            Ok((result, cells)) => (ok_response(id, result), cells),
            Err(e) => (err_response(id, e.code, &e.message), None),
        };
        if want_trace {
            let jsonl = tilestore_obs::tracer().take_request_jsonl(rid);
            response = with_field(response, "trace", Json::Str(jsonl));
        }
        (with_request_id(response, rid), cells)
    }

    /// Admission and deadline: claims an in-flight slot and resolves the
    /// request's deadline budget, or says why the request is refused.
    fn admit(&self, req: &Json, received: Instant) -> ServiceResult<(Slot<'_>, Option<u64>)> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(ServiceError::new(
                ErrorCode::Shutdown,
                "server is shutting down",
            ));
        }
        // Bounded admission: refuse typed-busy instead of queueing
        // unboundedly. A CAS loop, so the counter never overshoots the
        // limit even transiently.
        let mut cur = self.inflight.load(Ordering::SeqCst);
        loop {
            if cur >= self.max_inflight {
                self.busy_rejections.inc();
                return Err(ServiceError::new(
                    ErrorCode::Busy,
                    format!("{cur} requests in flight (limit {})", self.max_inflight),
                ));
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        let slot = Slot(&self.inflight);
        // A request-supplied deadline always applies (0 expires immediately —
        // useful for probing load without doing work); the configured default
        // fills in only when the request carries none, with 0 = no deadline.
        let deadline_ms = req
            .get("deadline_ms")
            .and_then(Json::as_u64)
            .or((self.default_deadline_ms > 0).then_some(self.default_deadline_ms));
        if let Some(ms) = deadline_ms {
            if received.elapsed() >= Duration::from_millis(ms) {
                self.deadline_rejections.inc();
                return Err(ServiceError::new(
                    ErrorCode::Deadline,
                    format!("deadline of {ms} ms expired before execution"),
                ));
            }
        }
        Ok((slot, deadline_ms))
    }

    /// The op table: what the core answers itself, what it validates and
    /// hands to the backend, and the backend's own ops last. Returns the
    /// `result` and, for a binary array answer, the cells it names.
    fn execute(
        &self,
        session: &mut B::Session,
        op: &str,
        call: &Call<'_>,
        parts: &mut Parts,
        received: Instant,
    ) -> ServiceResult<(Json, Option<Vec<u8>>)> {
        let need = |name: &str, missing: &str| {
            let field = call.req.get(name).and_then(Json::as_str);
            field.ok_or_else(|| ServiceError::bad_request(missing))
        };
        let result = match op {
            "ping" => Ok(Json::Str("pong".to_string())),
            "query" => {
                let q = need("q", "query needs a `q` string")?;
                let answer = self.backend.query(session, q, call)?;
                self.observe_slow(call.request_id, q, &answer, received);
                return Ok((answer.result, answer.cells));
            }
            "insert" => {
                let object = need("object", "insert needs an `object`")?;
                let array = insert_payload(call.req, parts)?;
                self.backend.insert(object, &array)
            }
            "retile" => {
                let object = need("object", "retile needs an `object`")?;
                let spec = need("scheme", "retile needs a `scheme` spec")?;
                self.backend.retile(object, spec)
            }
            "info" => {
                let object = need("object", "info needs an `object`")?;
                self.backend.info(session, object, call)
            }
            "stats" => self.backend.stats(),
            "health" => Ok(self.backend.health(Serving {
                inflight: self.inflight.load(Ordering::SeqCst) as u64,
                slow_queries: self.slow_log.len() as u64,
                durable: self.dir.is_some(),
            })),
            // The full registry with histogram percentiles — the live ops
            // plane behind `tilestore top`.
            "metrics" => Ok(tilestore_obs::metrics().snapshot().to_json()),
            "slow" => {
                let limit = call
                    .req
                    .get("limit")
                    .and_then(Json::as_u64)
                    .map_or(16, |l| l as usize);
                let entries = self
                    .slow_log
                    .recent(limit)
                    .iter()
                    .map(ToJson::to_json)
                    .collect::<Vec<_>>();
                Ok(Json::obj(vec![
                    ("threshold_ms", Json::UInt(self.slow_log.threshold_ms())),
                    ("count", Json::UInt(self.slow_log.len() as u64)),
                    ("entries", Json::Array(entries)),
                ]))
            }
            other => self.backend.backend_op(session, other, call),
        };
        result.map(|result| (result, None))
    }

    /// Feeds one finished statement to the slow-query log.
    fn observe_slow(&self, rid: u64, statement: &str, answer: &Answer, received: Instant) {
        let elapsed = received.elapsed();
        self.slow_log.observe(
            elapsed,
            SlowQueryEntry {
                request_id: rid,
                statement: statement.to_string(),
                epoch: answer.epoch,
                elapsed_ns: elapsed.as_nanos() as u64,
                stats: answer.stats,
            },
        );
    }
}

/// Writes one response frame, or — when it would exceed [`MAX_FRAME`] — a
/// typed `result_too_large` refusal in its place, so the peer gets an
/// answer instead of a closed connection.
fn respond(stream: &mut TcpStream, response: Json, cells: Option<Vec<u8>>) -> std::io::Result<()> {
    let envelope = |key: &str| response.get(key).and_then(Json::as_u64);
    let (id, rid) = (envelope("id").unwrap_or(0), envelope("request_id"));
    let parts: Vec<&[u8]> = cells.iter().map(Vec::as_slice).collect();
    let frame = Outgoing::new(response, &parts);
    let len = frame.payload_len();
    if len <= MAX_FRAME {
        return frame.write_to(stream);
    }
    drop(frame);
    let message = format!("response of {len} bytes exceeds the frame limit of {MAX_FRAME} bytes");
    let mut refusal = err_response(id, ErrorCode::ResultTooLarge, &message);
    if let Some(rid) = rid {
        refusal = with_request_id(refusal, rid);
    }
    Outgoing::new(refusal, &[]).write_to(stream)
}

/// Decodes and checks an `insert` request's payload, sent as `cells_hex`
/// or as a `cells_part`: the cells must tile the domain exactly, whatever
/// the backend.
fn insert_payload(req: &Json, parts: &mut Parts) -> ServiceResult<Array> {
    let domain = req
        .get("domain")
        .and_then(Json::as_str)
        .and_then(|s| s.parse::<Domain>().ok())
        .ok_or_else(|| ServiceError::bad_request("insert needs a valid `domain`"))?;
    let count = domain
        .cell_count()
        .map_err(|e| ServiceError::bad_request(format!("insert domain {domain}: {e}")))?;
    let tiles = |len: usize| match len as u64 {
        len if len > 0 && len.is_multiple_of(count) => Ok(()),
        len => Err(format!("{len} bytes do not tile {count} cells")),
    };
    let cells = if req.get("cells_part").is_some() {
        parts.take_cells(req, tiles)
    } else {
        req.get("cells_hex")
            .and_then(Json::as_str)
            .ok_or_else(|| "insert needs `cells_hex` or a `cells_part`".to_string())
            .and_then(|hex| hex_decode(hex).map_err(|e| format!("bad cells_hex: {e}")))
            .and_then(|cells| tiles(cells.len()).map(|()| cells))
    }
    .map_err(ServiceError::bad_request)?;
    let cell_size = (cells.len() as u64 / count) as usize;
    Array::from_bytes(domain, cell_size, cells)
        .map_err(|e| ServiceError::bad_request(e.to_string()))
}
