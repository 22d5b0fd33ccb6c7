//! Shard backends: where a shard's engine actually lives.
//!
//! Phase 1 is [`ShardBackend::Local`] — N in-process engines behind one
//! coordinator, sharing nothing but the process. Phase 2 is
//! [`ShardBackend::Remote`] — a routing-table entry dialing an ordinary
//! tilestore server over the existing wire protocol, with connection reuse
//! and per-shard deadlines inherited from the request.
//!
//! The epoch-agreement handshake produces one [`ShardPin`] per shard: for a
//! local shard a real engine [`Snapshot`], for a remote shard a
//! server-side pinned snapshot tied to the pinning connection (pins are
//! per-connection server-side, so the pin keeps its connection checked out
//! until release — which also means a dead connection can never leak a pin).

use std::sync::Mutex;

use tilestore_engine::{MddType, QueryStats, SharedDatabase, Snapshot};
use tilestore_geometry::Domain;
use tilestore_rasql::{ExplainReport, StatementResult, Value};
use tilestore_server::{Client, ClientError};
use tilestore_storage::PageStore;
use tilestore_testkit::json::{FromJson, Json};
use tilestore_testkit::Rng;

use crate::error::{ClusterError, Result};

/// One shard's engine: in-process or behind the wire protocol.
pub enum ShardBackend<S: PageStore> {
    /// An in-process engine owned by the coordinator.
    Local(SharedDatabase<S>),
    /// A remote tilestore server reached over TCP.
    Remote(RemoteShard),
}

impl<S: PageStore> ShardBackend<S> {
    /// Human-readable location for error messages and status reports.
    #[must_use]
    pub fn location(&self) -> String {
        match self {
            ShardBackend::Local(_) => "local".to_string(),
            ShardBackend::Remote(r) => r.addr.clone(),
        }
    }

    /// Whether this shard runs in-process.
    #[must_use]
    pub fn is_local(&self) -> bool {
        matches!(self, ShardBackend::Local(_))
    }
}

/// A remote shard: its address plus a small pool of idle connections.
pub struct RemoteShard {
    /// Address of the shard's server.
    pub addr: String,
    idle: Mutex<Vec<Client>>,
}

/// Cap on idle connections retained per remote shard.
const MAX_IDLE_PER_SHARD: usize = 8;

impl RemoteShard {
    /// A remote shard at `addr`; connections are dialed lazily.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        RemoteShard {
            addr: addr.into(),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Checks out an idle connection or dials a new one.
    pub(crate) fn checkout_client(&self) -> std::result::Result<Client, ClientError> {
        if let Some(c) = self.idle.lock().expect("shard pool lock").pop() {
            return Ok(c);
        }
        Client::connect(self.addr.as_str())
    }

    /// Returns a healthy connection to the idle pool.
    pub(crate) fn giveback_client(&self, mut client: Client) {
        client.set_deadline_ms(None);
        let mut idle = self.idle.lock().expect("shard pool lock");
        if idle.len() < MAX_IDLE_PER_SHARD {
            idle.push(client);
        }
    }
}

/// Maps a client error at shard `shard` of `addr` to the cluster's typed
/// failure. Transport-class failures (connect, reset, busy after retries,
/// shutdown, protocol violations) become [`ClusterError::ShardUnavailable`]
/// naming the shard; engine-class failures (an oversize answer included)
/// stay [`ClusterError::Remote`].
pub(crate) fn map_client_error(shard: usize, addr: &str, e: ClientError) -> ClusterError {
    match e {
        ClientError::Deadline(m) => ClusterError::Deadline { shard, detail: m },
        ClientError::Engine(m) | ClientError::BadRequest(m) | ClientError::ResultTooLarge(m) => {
            ClusterError::Remote { shard, message: m }
        }
        other => ClusterError::ShardUnavailable {
            shard,
            addr: addr.to_string(),
            detail: other.to_string(),
        },
    }
}

/// Per-shard execution counters reported by `EXPLAIN` on one shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardExplainCounts {
    /// Tiles the shard's planner would fetch.
    pub fetched: u64,
    /// Tiles pruned by synopsis evidence.
    pub pruned: u64,
    /// R+-tree nodes visited resolving the region.
    pub index_nodes: u64,
}

/// What a pinned shard knows about one object.
pub struct PinnedObject {
    /// The shard's current domain for the object (`None` = no data yet).
    pub current_domain: Option<Domain>,
    /// The object's MDD type (cell type + definition domain).
    pub mdd_type: MddType,
    /// Tiles the shard stores for the object.
    pub tiles: u64,
    /// Cells those tiles cover.
    pub covered_cells: u64,
}

/// One shard's half of the epoch-agreement handshake: a snapshot pinned at
/// the coordinator's consistency point. Dropping a local pin releases the
/// engine snapshot; remote pins should be released via
/// [`ShardPin::release`] so the connection returns to the pool (dropping
/// one instead closes the connection, which the server also treats as a
/// release — pins die with their connection).
#[allow(clippy::large_enum_variant)] // one pin per shard per request; size is irrelevant
pub enum ShardPin<S: PageStore> {
    /// An in-process engine snapshot.
    Local {
        /// The shard id.
        shard: usize,
        /// The pinned snapshot.
        snap: Snapshot<S>,
    },
    /// A server-side pin tied to `client`'s connection.
    Remote {
        /// The shard id.
        shard: usize,
        /// The shard's address (for error reporting and pool return).
        addr: String,
        /// The pinning connection; all pinned requests must ride it.
        client: Client,
        /// The server-assigned pin id.
        pin: u64,
        /// The epoch the pin captured.
        epoch: u64,
    },
}

impl<S: PageStore> ShardPin<S> {
    /// The shard id this pin belongs to.
    #[must_use]
    pub fn shard(&self) -> usize {
        match self {
            ShardPin::Local { shard, .. } | ShardPin::Remote { shard, .. } => *shard,
        }
    }

    /// The epoch the pin captured.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        match self {
            ShardPin::Local { snap, .. } => snap.epoch(),
            ShardPin::Remote { epoch, .. } => *epoch,
        }
    }

    /// Fetches the pinned view of `object`: current domain and MDD type.
    pub fn object(&mut self, object: &str) -> Result<PinnedObject> {
        match self {
            ShardPin::Local { snap, .. } => {
                let meta = snap.object(object)?;
                Ok(PinnedObject {
                    current_domain: meta.current_domain.clone(),
                    mdd_type: meta.mdd_type.clone(),
                    tiles: meta.tiles.len() as u64,
                    covered_cells: meta.covered_cells(),
                })
            }
            ShardPin::Remote {
                shard,
                addr,
                client,
                pin,
                ..
            } => {
                let info = client
                    .info_pinned(object, *pin)
                    .map_err(|e| map_client_error(*shard, addr, e))?;
                parse_remote_info(*shard, &info)
            }
        }
    }

    /// Runs one rasql statement against the pinned snapshot. The statement
    /// is pre-rewritten by the coordinator (explicit clip ranges, `avg`
    /// lowered to `sum`), so both backends see identical surface syntax.
    pub fn run(&mut self, stmt: &str) -> Result<(Value, QueryStats)> {
        match self {
            ShardPin::Local { snap, .. } => match tilestore_rasql::execute_statement(snap, stmt)? {
                StatementResult::Value(v, stats) => Ok((v, stats)),
                StatementResult::Explain(_) => Err(ClusterError::Config(
                    "shard run() got an EXPLAIN statement".into(),
                )),
            },
            ShardPin::Remote {
                shard,
                addr,
                client,
                pin,
                ..
            } => {
                let (value, stats) = client
                    .query_pinned(stmt, *pin)
                    .map_err(|e| map_client_error(*shard, addr, e))?;
                let value = value
                    .into_value()
                    .map_err(tilestore_rasql::QueryError::Engine)?;
                Ok((value, stats))
            }
        }
    }

    /// Runs `EXPLAIN <stmt>` against the pinned snapshot and returns the
    /// shard's planner counters.
    pub fn explain(&mut self, stmt: &str) -> Result<ShardExplainCounts> {
        match self {
            ShardPin::Local { snap, .. } => {
                match tilestore_rasql::execute_statement(snap, &format!("EXPLAIN {stmt}"))? {
                    StatementResult::Explain(ExplainReport { plan, .. }) => {
                        Ok(ShardExplainCounts {
                            fetched: plan.fetched(),
                            pruned: plan.pruned(),
                            index_nodes: plan.index_nodes,
                        })
                    }
                    StatementResult::Value(..) => Err(ClusterError::Config(
                        "EXPLAIN statement produced a value".into(),
                    )),
                }
            }
            ShardPin::Remote {
                shard,
                addr,
                client,
                pin,
                ..
            } => {
                let result = client
                    .explain_pinned(stmt, *pin)
                    .map_err(|e| map_client_error(*shard, addr, e))?;
                let plan = result.get("plan").ok_or_else(|| ClusterError::Remote {
                    shard: *shard,
                    message: "EXPLAIN response lacks a plan".into(),
                })?;
                let count = |k: &str| plan.get(k).and_then(Json::as_u64).unwrap_or(0);
                Ok(ShardExplainCounts {
                    fetched: count("fetched"),
                    pruned: count("pruned"),
                    index_nodes: count("index_nodes"),
                })
            }
        }
    }

    /// Releases the pin. Local pins just drop; remote pins unpin
    /// server-side and return the connection to the shard's pool (on unpin
    /// failure the connection is dropped instead, which releases the pin
    /// server-side anyway).
    pub fn release(self, backends: &[ShardBackend<S>]) {
        if let ShardPin::Remote {
            shard,
            mut client,
            pin,
            ..
        } = self
        {
            if client.unpin(pin).is_ok() {
                if let Some(ShardBackend::Remote(r)) = backends.get(shard) {
                    r.giveback_client(client);
                }
            }
        }
    }
}

/// Pins shard `shard` of `backend`, optionally bounding the remote
/// handshake by `deadline_ms` and enabling transparent retry (jittered by
/// `retry_seed`) on the pinning connection.
pub(crate) fn pin_shard<S: PageStore>(
    shard: usize,
    backend: &ShardBackend<S>,
    deadline_ms: Option<u64>,
    retry_seed: u64,
) -> Result<ShardPin<S>> {
    match backend {
        ShardBackend::Local(db) => Ok(ShardPin::Local {
            shard,
            snap: db.snapshot(),
        }),
        ShardBackend::Remote(r) => {
            let mut client = r
                .checkout_client()
                .map_err(|e| map_client_error(shard, &r.addr, e))?;
            client.set_deadline_ms(deadline_ms);
            client.set_retry(Some(tilestore_server::RetryPolicy {
                seed: retry_seed,
                ..tilestore_server::RetryPolicy::default()
            }));
            let (pin, epoch) = match client.pin() {
                Ok(p) => p,
                Err(e) => return Err(map_client_error(shard, &r.addr, e)),
            };
            Ok(ShardPin::Remote {
                shard,
                addr: r.addr.clone(),
                client,
                pin,
                epoch,
            })
        }
    }
}

/// Decodes a remote `info` response into the coordinator's object view.
fn parse_remote_info(shard: usize, info: &Json) -> Result<PinnedObject> {
    let proto = |m: &str| ClusterError::Remote {
        shard,
        message: m.to_string(),
    };
    let current_domain = match info.get("current_domain") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_str()
                .and_then(|s| s.parse::<Domain>().ok())
                .ok_or_else(|| proto("info carries an unparseable current_domain"))?,
        ),
    };
    let mdd_type = info
        .get("mdd_type")
        .ok_or_else(|| proto("info lacks mdd_type (shard server too old?)"))
        .and_then(|v| {
            MddType::from_json(v).map_err(|e| proto(&format!("bad mdd_type in info: {e}")))
        })?;
    Ok(PinnedObject {
        current_domain,
        mdd_type,
        tiles: info.get("tiles").and_then(Json::as_u64).unwrap_or(0),
        covered_cells: info
            .get("covered_cells")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    })
}

/// Derives a per-shard jitter seed so concurrent shard connections back off
/// on decorrelated schedules.
pub(crate) fn shard_retry_seed(base: u64, shard: usize) -> u64 {
    let mut rng = Rng::seed_from_u64(base ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}
