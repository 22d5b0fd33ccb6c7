//! The coordinator: one logical store over N engine shards.
//!
//! Reads run the "agree on epochs" handshake: under a shared gate the
//! coordinator pins one snapshot per shard (serially — this is the
//! consistency point), then scatters the per-shard clipped queries onto the
//! [`ThreadPool`], gathers the sub-results, and stitches them into one
//! answer. Writes take the gate exclusively and commit to every owning
//! shard before any new read can pin, so a concurrent reader observes the
//! shards' epochs either all before or all after a cluster write — never a
//! mix (for local backends; remote shards shared by several coordinators
//! get this only per-coordinator).
//!
//! Aggregate recombination follows the condenser algebra: `sum` and `count`
//! add, `min`/`max` fold, `avg` is pushed down as `sum` and divided by the
//! region's cell count once at the coordinator (bit-identical for integer
//! cell types; float sums may differ in rounding from a single engine
//! because addition order changes), `some` ORs and `all` ANDs. Array
//! results paste per-shard pieces into one slab: the shard map partitions
//! all of space, so the clipped pieces partition the query region exactly
//! and every result cell is written by exactly one piece.

use std::sync::{Arc, RwLock};

use tilestore_engine::{
    aggregate_array, induce_scalar, AggKind, AggValue, Array, BinOp, CellType, InsertStats,
    MddType, QueryStats, RetileStats,
};
use tilestore_exec::ThreadPool;
use tilestore_geometry::{copy_region, AxisRange, Domain};
use tilestore_rasql::{
    parse_statement, AxisSelect, Condenser, Expr, InducedOp, Query, QueryError, Statement, Value,
};
use tilestore_server::ClientError;
use tilestore_storage::PageStore;
use tilestore_testkit::json::{FromJson, Json, ToJson};
use tilestore_tiling::{RetileSpec, Scheme};

use crate::backend::{
    map_client_error, pin_shard, shard_retry_seed, PinnedObject, ShardBackend, ShardExplainCounts,
    ShardPin,
};
use crate::error::{ClusterError, Result};
use crate::shard_map::ShardMap;

/// One shard's epoch at the request's consistency point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardEpoch {
    /// The shard id.
    pub shard: usize,
    /// Its pinned catalog epoch.
    pub epoch: u64,
}

/// A cluster query's answer: the stitched value, the merged counters, and
/// the per-shard epochs the scatter ran against.
#[derive(Debug)]
pub struct ClusterValue {
    /// The stitched result.
    pub value: Value,
    /// Saturating merge of every shard's counters.
    pub stats: QueryStats,
    /// The agreed epoch set.
    pub epochs: Vec<ShardEpoch>,
}

/// One shard's entry in a cluster `EXPLAIN` report.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// The shard id.
    pub shard: usize,
    /// Where the shard lives.
    pub location: String,
    /// The sub-domain of the query region this shard owns (`None` when the
    /// region misses the shard entirely).
    pub sub_domain: Option<Domain>,
    /// The epoch pinned for this shard.
    pub epoch: u64,
    /// The shard planner's counters (zero when the shard holds no data).
    pub counts: ShardExplainCounts,
}

/// The cluster-level `EXPLAIN [ANALYZE]` report.
#[derive(Debug, Clone)]
pub struct ClusterExplain {
    /// The accessed object.
    pub object: String,
    /// The resolved global query region.
    pub region: Domain,
    /// The `WHERE` predicate, rendered, if any.
    pub predicate: Option<String>,
    /// The condenser name, if the query aggregates.
    pub condenser: Option<&'static str>,
    /// Per-shard plans, shard order.
    pub shards: Vec<ShardPlan>,
    /// Measured execution for `EXPLAIN ANALYZE`: merged counters plus
    /// wall-clock nanoseconds (the analyze run re-pins, so it may observe a
    /// later epoch set than the plan).
    pub analyze: Option<(QueryStats, u64)>,
}

impl ClusterExplain {
    /// Total tiles fetched across shards.
    #[must_use]
    pub fn fetched(&self) -> u64 {
        self.shards.iter().map(|s| s.counts.fetched).sum()
    }

    /// Total tiles pruned across shards.
    #[must_use]
    pub fn pruned(&self) -> u64 {
        self.shards.iter().map(|s| s.counts.pruned).sum()
    }

    /// Renders the report as indented text (one line per shard), matching
    /// the CLI's single-engine explain rendering style.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cluster explain: object={} region={}\n",
            self.object, self.region
        ));
        if let Some(p) = &self.predicate {
            out.push_str(&format!("  predicate: {p}\n"));
        }
        if let Some(c) = self.condenser {
            out.push_str(&format!("  condenser: {c}\n"));
        }
        for s in &self.shards {
            match &s.sub_domain {
                Some(d) => out.push_str(&format!(
                    "  shard {} ({}): owns {} epoch {} fetched {} pruned {} index_nodes {}\n",
                    s.shard,
                    s.location,
                    d,
                    s.epoch,
                    s.counts.fetched,
                    s.counts.pruned,
                    s.counts.index_nodes
                )),
                None => out.push_str(&format!(
                    "  shard {} ({}): no overlap, epoch {}\n",
                    s.shard, s.location, s.epoch
                )),
            }
        }
        out.push_str(&format!(
            "  total: fetched {} pruned {}\n",
            self.fetched(),
            self.pruned()
        ));
        if let Some((stats, ns)) = &self.analyze {
            out.push_str(&format!(
                "  analyze: tiles_read {} tiles_pruned {} elapsed {:.3} ms\n",
                stats.tiles_read,
                stats.tiles_pruned,
                *ns as f64 / 1e6
            ));
        }
        out
    }
}

impl ToJson for ClusterExplain {
    fn to_json(&self) -> Json {
        let shards = self
            .shards
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("shard", Json::UInt(s.shard as u64)),
                    ("location", Json::Str(s.location.clone())),
                    (
                        "sub_domain",
                        s.sub_domain
                            .as_ref()
                            .map_or(Json::Null, |d| Json::Str(d.to_string())),
                    ),
                    ("epoch", Json::UInt(s.epoch)),
                    ("fetched", Json::UInt(s.counts.fetched)),
                    ("pruned", Json::UInt(s.counts.pruned)),
                    ("index_nodes", Json::UInt(s.counts.index_nodes)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("object", Json::Str(self.object.clone())),
            ("region", Json::Str(self.region.to_string())),
        ];
        if let Some(p) = &self.predicate {
            fields.push(("predicate", Json::Str(p.clone())));
        }
        if let Some(c) = self.condenser {
            fields.push(("condenser", Json::Str(c.to_string())));
        }
        fields.push(("fetched", Json::UInt(self.fetched())));
        fields.push(("pruned", Json::UInt(self.pruned())));
        fields.push(("shards", Json::Array(shards)));
        if let Some((stats, ns)) = &self.analyze {
            fields.push((
                "analyze",
                Json::obj(vec![
                    ("stats", stats.to_json()),
                    ("elapsed_ns", Json::UInt(*ns)),
                ]),
            ));
        }
        Json::obj(fields)
    }
}

/// The result of a cluster statement (query or `EXPLAIN`).
#[derive(Debug)]
pub enum ClusterStatement {
    /// A plain query's stitched value.
    Value(ClusterValue),
    /// A cluster `EXPLAIN [ANALYZE]` report.
    Explain(ClusterExplain),
}

/// A cluster write receipt: per-shard epochs and stats, plus merged totals.
pub struct ClusterWrite<T> {
    /// `(shard, committed epoch, stats)` for every shard that took part.
    pub per_shard: Vec<(usize, u64, T)>,
}

impl ClusterWrite<InsertStats> {
    /// Sums the per-shard insert counters.
    #[must_use]
    pub fn merged(&self) -> InsertStats {
        let mut m = InsertStats::default();
        for (_, _, s) in &self.per_shard {
            m.tiles_created += s.tiles_created;
            m.bytes_written += s.bytes_written;
            m.pages_written += s.pages_written;
            m.elapsed_ns = m.elapsed_ns.max(s.elapsed_ns);
        }
        m
    }
}

impl ClusterWrite<RetileStats> {
    /// Sums the per-shard retile counters.
    #[must_use]
    pub fn merged(&self) -> RetileStats {
        let mut m = RetileStats::default();
        for (_, _, s) in &self.per_shard {
            m.tiles_before += s.tiles_before;
            m.tiles_after += s.tiles_after;
            m.bytes_rewritten += s.bytes_rewritten;
            m.elapsed_ns = m.elapsed_ns.max(s.elapsed_ns);
        }
        m
    }
}

/// What one shard does during a scatter.
enum ShardWork {
    /// The query region misses the shard's slab.
    Skip,
    /// The shard owns part of the region but holds no data: the piece is
    /// all defaults and is computed coordinator-side without any I/O.
    Default(Domain),
    /// Run the rewritten statement against the shard's pinned snapshot.
    Run(String),
}

/// The coordinator: shard map + backends + scatter pool.
pub struct Coordinator<S: PageStore> {
    map: ShardMap,
    backends: Vec<ShardBackend<S>>,
    pool: Arc<ThreadPool>,
    /// Readers share, writers exclude: pins are only taken under `read`,
    /// multi-shard commits under `write`, which is what makes the agreed
    /// epoch set consistent across shards.
    gate: RwLock<()>,
    retry_base: u64,
}

impl<S: PageStore> Coordinator<S> {
    /// Builds a coordinator over `backends` partitioned by `map`.
    ///
    /// # Errors
    /// [`ClusterError::Config`] when the backend count does not match the
    /// map's shard count.
    pub fn new(
        map: ShardMap,
        backends: Vec<ShardBackend<S>>,
        pool: Arc<ThreadPool>,
    ) -> Result<Self> {
        if backends.len() != map.shards() {
            return Err(ClusterError::Config(format!(
                "shard map wants {} shards, got {} backends",
                map.shards(),
                backends.len()
            )));
        }
        Ok(Coordinator {
            map,
            backends,
            pool,
            gate: RwLock::new(()),
            retry_base: 0x636c_7573_7465_7221,
        })
    }

    /// The partitioning function.
    #[must_use]
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.backends.len()
    }

    /// The shard backends.
    #[must_use]
    pub fn backends(&self) -> &[ShardBackend<S>] {
        &self.backends
    }

    /// Pins every shard at one consistency point ("agree on epochs"). On
    /// any failure the already-taken pins are released before the error
    /// surfaces, so a failed handshake leaks nothing.
    fn pin_all(&self, deadline_ms: Option<u64>) -> Result<Vec<ShardPin<S>>> {
        let _g = self.gate.read().expect("cluster gate poisoned");
        let mut pins: Vec<ShardPin<S>> = Vec::with_capacity(self.backends.len());
        for (k, b) in self.backends.iter().enumerate() {
            match pin_shard(k, b, deadline_ms, shard_retry_seed(self.retry_base, k)) {
                Ok(p) => pins.push(p),
                Err(e) => {
                    for p in pins {
                        p.release(&self.backends);
                    }
                    return Err(e);
                }
            }
        }
        Ok(pins)
    }

    /// Parses and executes one rasql statement across the cluster.
    ///
    /// # Errors
    /// Parse/semantic errors, shard failures ([`ClusterError::ShardUnavailable`]
    /// names the failed shard), deadline expiry.
    pub fn execute(&self, stmt: &str) -> Result<ClusterStatement> {
        self.execute_with(stmt, None)
    }

    /// [`Coordinator::execute`] with a deadline inherited by every remote
    /// shard request.
    ///
    /// # Errors
    /// As [`Coordinator::execute`].
    pub fn execute_with(&self, stmt: &str, deadline_ms: Option<u64>) -> Result<ClusterStatement> {
        match parse_statement(stmt)? {
            Statement::Query(q) => Ok(ClusterStatement::Value(self.query_with(&q, deadline_ms)?)),
            Statement::Explain { query, analyze } => Ok(ClusterStatement::Explain(
                self.explain_with(&query, analyze, deadline_ms)?,
            )),
        }
    }

    /// Executes a pre-parsed query across the cluster.
    ///
    /// # Errors
    /// As [`Coordinator::execute`].
    pub fn query(&self, query: &Query) -> Result<ClusterValue> {
        self.query_with(query, None)
    }

    /// [`Coordinator::query`] with a deadline for remote shards.
    ///
    /// # Errors
    /// As [`Coordinator::execute`].
    pub fn query_with(&self, query: &Query, deadline_ms: Option<u64>) -> Result<ClusterValue> {
        validate(query)?;
        let mut pins = self.pin_all(deadline_ms)?;
        let gathered = self.scattered_query(query, &mut pins);
        // `scattered_query` consumed and released the pins via scatter.
        gathered
    }

    /// The pinned read path: resolve, clip, scatter, gather, stitch.
    /// Consumes (and releases) the pins.
    fn scattered_query(&self, query: &Query, pins: &mut Vec<ShardPin<S>>) -> Result<ClusterValue> {
        let epochs: Vec<ShardEpoch> = pins
            .iter()
            .map(|p| ShardEpoch {
                shard: p.shard(),
                epoch: p.epoch(),
            })
            .collect();
        let objects = match self.pinned_objects(pins, &query.from) {
            Ok(o) => o,
            Err(e) => {
                for p in pins.drain(..) {
                    p.release(&self.backends);
                }
                return Err(e);
            }
        };
        let prepared = match prepare(query, &self.map, &objects) {
            Ok(p) => p,
            Err(e) => {
                for p in pins.drain(..) {
                    p.release(&self.backends);
                }
                return Err(e);
            }
        };
        let Prepared {
            region,
            fixed_axes,
            work,
            cell,
            condenser,
            agg_kind,
        } = prepared;

        // Scatter: every closure releases its pin whatever happens, so a
        // failing shard never strands the survivors' snapshots.
        let backends = &self.backends;
        let items: Vec<(ShardPin<S>, ShardWork)> = pins.drain(..).zip(work).collect();
        let results: Vec<Result<Option<(Value, QueryStats)>>> =
            self.pool.scatter(items, |_, (mut pin, work)| match work {
                ShardWork::Skip => {
                    pin.release(backends);
                    Ok(None)
                }
                ShardWork::Default(clip) => {
                    pin.release(backends);
                    default_piece(query, &clip, &cell, agg_kind).map(Some)
                }
                ShardWork::Run(stmt) => {
                    let r = pin.run(&stmt);
                    pin.release(backends);
                    r.map(Some)
                }
            });

        let mut pieces = Vec::new();
        let mut stats = QueryStats::default();
        let mut first_err = None;
        for r in results {
            match r {
                Ok(Some((v, s))) => {
                    stats.merge(&s);
                    pieces.push(v);
                }
                Ok(None) => {}
                Err(e) => {
                    // Prefer availability errors: they carry the shard name
                    // the caller needs for the partial-failure contract.
                    let takes_precedence = matches!(
                        e,
                        ClusterError::ShardUnavailable { .. } | ClusterError::Deadline { .. }
                    );
                    if first_err.is_none() || takes_precedence {
                        first_err = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }

        let value = match condenser {
            Some(op) => combine_scalars(op, &pieces, region.cells())?,
            None => combine_arrays(&region, &fixed_axes, pieces)?,
        };
        Ok(ClusterValue {
            value,
            stats,
            epochs,
        })
    }

    /// Builds the per-shard `EXPLAIN` report for a pre-parsed query.
    ///
    /// # Errors
    /// As [`Coordinator::execute`]; induced expressions are rejected like
    /// the single-engine planner does.
    pub fn explain(&self, query: &Query, analyze: bool) -> Result<ClusterExplain> {
        self.explain_with(query, analyze, None)
    }

    /// [`Coordinator::explain`] with a deadline for remote shards.
    ///
    /// # Errors
    /// As [`Coordinator::explain`].
    pub fn explain_with(
        &self,
        query: &Query,
        analyze: bool,
        deadline_ms: Option<u64>,
    ) -> Result<ClusterExplain> {
        validate(query)?;
        // Mirror the single-engine EXPLAIN restriction.
        match &query.expr {
            Expr::Access { .. } => {}
            Expr::Condense { arg, .. } if matches!(arg.as_ref(), Expr::Access { .. }) => {}
            _ => {
                return Err(ClusterError::Query(QueryError::Semantic(
                    "EXPLAIN supports a plain access or a condenser over one; induced \
                     expressions are post-processing and have no tile plan"
                        .to_string(),
                )))
            }
        }
        let mut pins = self.pin_all(deadline_ms)?;
        let epochs: Vec<u64> = pins.iter().map(ShardPin::epoch).collect();
        let objects = match self.pinned_objects(&mut pins, &query.from) {
            Ok(o) => o,
            Err(e) => {
                for p in pins.drain(..) {
                    p.release(&self.backends);
                }
                return Err(e);
            }
        };
        let prepared = match prepare(query, &self.map, &objects) {
            Ok(p) => p,
            Err(e) => {
                for p in pins.drain(..) {
                    p.release(&self.backends);
                }
                return Err(e);
            }
        };

        let backends = &self.backends;
        let items: Vec<(ShardPin<S>, ShardWork)> = pins.drain(..).zip(prepared.work).collect();
        let results: Vec<Result<(Option<Domain>, ShardExplainCounts)>> =
            self.pool.scatter(items, |_, (mut pin, work)| match work {
                ShardWork::Skip => {
                    pin.release(backends);
                    Ok((None, ShardExplainCounts::default()))
                }
                ShardWork::Default(clip) => {
                    pin.release(backends);
                    Ok((Some(clip), ShardExplainCounts::default()))
                }
                ShardWork::Run(stmt) => {
                    let r = pin.explain(&stmt);
                    let shard = pin.shard();
                    pin.release(backends);
                    r.map(|c| (self.map.clip(shard, &prepared.region), c))
                }
            });

        let mut shards = Vec::with_capacity(results.len());
        for (k, r) in results.into_iter().enumerate() {
            let (sub_domain, counts) = r?;
            shards.push(ShardPlan {
                shard: k,
                location: self.backends[k].location(),
                sub_domain,
                epoch: epochs[k],
                counts,
            });
        }
        let analyze_info = if analyze {
            let started = std::time::Instant::now();
            let v = self.query_with(query, deadline_ms)?;
            Some((v.stats, started.elapsed().as_nanos() as u64))
        } else {
            None
        };
        Ok(ClusterExplain {
            object: query.from.clone(),
            region: prepared.region,
            predicate: query.predicate.as_ref().map(|p| p.to_string()),
            condenser: prepared.condenser.map(Condenser::name),
            shards,
            analyze: analyze_info,
        })
    }

    /// Fetches each pinned shard's view of `object`; errors if the object
    /// is unknown anywhere or its types disagree across shards.
    fn pinned_objects(&self, pins: &mut [ShardPin<S>], object: &str) -> Result<Vec<PinnedObject>> {
        let mut out = Vec::with_capacity(pins.len());
        for pin in pins.iter_mut() {
            out.push(pin.object(object)?);
        }
        for o in &out[1..] {
            if o.mdd_type != out[0].mdd_type {
                return Err(ClusterError::Config(format!(
                    "object {object:?} has diverging MDD types across shards"
                )));
            }
        }
        Ok(out)
    }

    /// Inserts `array`, routing each cell to its owning shard. Holds the
    /// write gate for the whole multi-shard commit so concurrent readers
    /// pin either all-before or all-after epochs.
    ///
    /// # Errors
    /// Shard failures; engine errors from any shard abort the remaining
    /// routing (already-committed shards keep their piece — inserts are
    /// idempotent to re-apply).
    pub fn insert(&self, object: &str, array: &Array) -> Result<ClusterWrite<InsertStats>> {
        let _g = self.gate.write().expect("cluster gate poisoned");
        let mut per_shard = Vec::new();
        for k in 0..self.backends.len() {
            let Some(clip) = self.map.clip(k, array.domain()) else {
                continue;
            };
            let sub = extract_sub_array(array, &clip)?;
            match &self.backends[k] {
                ShardBackend::Local(db) => {
                    let receipt = db.insert(object, &sub)?;
                    per_shard.push((k, receipt.epoch, receipt.stats));
                }
                ShardBackend::Remote(r) => {
                    let mut client = self.remote_client(k, r)?;
                    let resp = client
                        .insert(object, &sub)
                        .map_err(|e| map_client_error(k, &r.addr, e))?;
                    r.giveback_client(client);
                    let epoch = resp.get("epoch").and_then(Json::as_u64).unwrap_or(0);
                    let stats = InsertStats::from_json(&resp).unwrap_or_default();
                    per_shard.push((k, epoch, stats));
                }
            }
        }
        Ok(ClusterWrite { per_shard })
    }

    /// Pushes a re-tiling spec to every shard (each re-tiles its own
    /// sub-domain), under the exclusive gate so the epoch advance is
    /// cluster-consistent. Accepts the same grammar as the single-node
    /// `retile` command ([`tilestore_tiling::RETILE_USAGE`]): an explicit
    /// scheme or `--defrag[:<budgetKB>]`. `--from-log` is rejected with
    /// [`ClusterError::Unsupported`] — access logs are per-shard and a
    /// cross-shard merge does not exist yet.
    ///
    /// # Errors
    /// Shard failures, bad specs, [`ClusterError::Unsupported`] for
    /// `--from-log`.
    pub fn retile(&self, object: &str, spec: &str) -> Result<ClusterWrite<RetileStats>> {
        let parsed = tilestore_tiling::parse_retile_spec(spec).map_err(ClusterError::Config)?;
        if matches!(parsed, RetileSpec::FromLog { .. }) {
            return Err(ClusterError::Unsupported {
                op: "retile --from-log".to_string(),
                detail: "access logs are per-shard; retile with an explicit scheme or run \
                         --from-log on each shard server directly"
                    .to_string(),
            });
        }
        let _g = self.gate.write().expect("cluster gate poisoned");
        let mut per_shard = Vec::new();
        for k in 0..self.backends.len() {
            match &self.backends[k] {
                ShardBackend::Local(db) => {
                    // Shards whose sub-domain holds no data yet have nothing
                    // to rewrite; skip them instead of failing the cluster.
                    let applied = match &parsed {
                        RetileSpec::Defrag { budget_bytes } => {
                            db.defrag_paced(object, *budget_bytes)
                        }
                        RetileSpec::Scheme(_) => {
                            let dim = db.object(object)?.mdd_type.dim();
                            let scheme: Scheme = tilestore_tiling::parse_scheme_spec(spec, dim)
                                .map_err(ClusterError::Config)?;
                            db.retile(object, scheme)
                        }
                        RetileSpec::FromLog { .. } => unreachable!("rejected above"),
                    };
                    match applied {
                        Ok(receipt) => per_shard.push((k, receipt.epoch, receipt.stats)),
                        Err(tilestore_engine::EngineError::EmptyObject(_)) => {}
                        Err(e) => return Err(e.into()),
                    }
                }
                ShardBackend::Remote(r) => {
                    let mut client = self.remote_client(k, r)?;
                    match client.retile(object, spec) {
                        Ok(resp) => {
                            r.giveback_client(client);
                            let epoch = resp.get("epoch").and_then(Json::as_u64).unwrap_or(0);
                            let stats = RetileStats::from_json(&resp).unwrap_or_default();
                            per_shard.push((k, epoch, stats));
                        }
                        // Remote engine errors arrive as strings; an empty
                        // shard is the one benign case, matched by message.
                        Err(ClientError::Engine(m)) if m.contains("holds no cells") => {
                            r.giveback_client(client);
                        }
                        Err(e) => return Err(map_client_error(k, &r.addr, e)),
                    }
                }
            }
        }
        Ok(ClusterWrite { per_shard })
    }

    /// Creates an object on every **local** shard. Remote shards are
    /// provisioned by their own servers; attaching them requires the object
    /// to pre-exist there.
    ///
    /// # Errors
    /// [`ClusterError::Config`] if any shard is remote; engine errors.
    pub fn create_object(&self, name: &str, mdd_type: MddType, scheme: Scheme) -> Result<()> {
        let _g = self.gate.write().expect("cluster gate poisoned");
        if let Some(k) = self.backends.iter().position(|b| !b.is_local()) {
            return Err(ClusterError::Config(format!(
                "create_object needs local shards; shard {k} is remote — create the \
                 object on each shard server instead"
            )));
        }
        for b in &self.backends {
            if let ShardBackend::Local(db) = b {
                db.create_object(name, mdd_type.clone(), scheme.clone())?;
            }
        }
        Ok(())
    }

    /// The merged, epoch-consistent view of one object: hull of the shard
    /// domains, summed tiles/covered cells, per-shard epochs.
    ///
    /// # Errors
    /// Shard failures, unknown objects.
    pub fn info(&self, object: &str) -> Result<Json> {
        let mut pins = self.pin_all(None)?;
        let epochs: Vec<ShardEpoch> = pins
            .iter()
            .map(|p| ShardEpoch {
                shard: p.shard(),
                epoch: p.epoch(),
            })
            .collect();
        let objects = self.pinned_objects(&mut pins, object);
        for p in pins.drain(..) {
            p.release(&self.backends);
        }
        let objects = objects?;
        let hull = hull_of(&objects)?;
        let tiles: u64 = objects.iter().map(|o| o.tiles).sum();
        let covered: u64 = objects.iter().map(|o| o.covered_cells).sum();
        Ok(Json::obj(vec![
            ("name", Json::Str(object.to_string())),
            (
                "cell_size",
                Json::UInt(objects[0].mdd_type.cell.size as u64),
            ),
            (
                "current_domain",
                hull.map_or(Json::Null, |d| Json::Str(d.to_string())),
            ),
            ("tiles", Json::UInt(tiles)),
            ("covered_cells", Json::UInt(covered)),
            ("mdd_type", objects[0].mdd_type.to_json()),
            ("shard_epochs", epochs_json(&epochs)),
        ]))
    }

    /// Cluster status: the map plus each shard's location, health and
    /// current epoch.
    #[must_use]
    pub fn status(&self) -> Json {
        let shards = self
            .backends
            .iter()
            .enumerate()
            .map(|(k, b)| {
                let (healthy, epoch) = match b {
                    ShardBackend::Local(db) => (true, db.catalog_epoch()),
                    ShardBackend::Remote(r) => match self.remote_client(k, r) {
                        Ok(mut c) => {
                            let e = c
                                .health()
                                .ok()
                                .and_then(|h| h.get("epoch").and_then(Json::as_u64));
                            r.giveback_client(c);
                            (e.is_some(), e.unwrap_or(0))
                        }
                        Err(_) => (false, 0),
                    },
                };
                Json::obj(vec![
                    ("shard", Json::UInt(k as u64)),
                    ("location", Json::Str(b.location())),
                    ("healthy", Json::Bool(healthy)),
                    ("epoch", Json::UInt(epoch)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("shards", Json::UInt(self.backends.len() as u64)),
            ("map", self.map.to_json()),
            ("members", Json::Array(shards)),
        ])
    }

    /// Object names as seen by shard 0 (objects exist on every shard by
    /// construction).
    ///
    /// # Errors
    /// Shard failures.
    pub fn object_names(&self) -> Result<Vec<String>> {
        match &self.backends[0] {
            ShardBackend::Local(db) => Ok(db.object_names()),
            ShardBackend::Remote(r) => {
                let mut client = self.remote_client(0, r)?;
                let resp = client
                    .stats()
                    .map_err(|e| map_client_error(0, &r.addr, e))?;
                r.giveback_client(client);
                let names = resp
                    .get("objects")
                    .and_then(Json::as_array)
                    .map(|objs| {
                        objs.iter()
                            .filter_map(|o| o.get("name").and_then(Json::as_str))
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default();
                Ok(names)
            }
        }
    }

    /// Saves every local shard into `shard-K/` under `root`.
    ///
    /// # Errors
    /// Engine persistence errors.
    pub fn save_local(&self, root: &std::path::Path) -> Result<()> {
        for (k, b) in self.backends.iter().enumerate() {
            if let ShardBackend::Local(db) = b {
                db.save(crate::shard_map::ClusterManifest::shard_dir(root, k))?;
            }
        }
        Ok(())
    }

    fn remote_client(
        &self,
        shard: usize,
        r: &crate::backend::RemoteShard,
    ) -> Result<tilestore_server::Client> {
        r.checkout_client()
            .map_err(|e: ClientError| map_client_error(shard, &r.addr, e))
    }
}

/// Per-query derived state shared by the scatter phases.
struct Prepared {
    region: Domain,
    fixed_axes: Vec<usize>,
    work: Vec<ShardWork>,
    cell: CellType,
    condenser: Option<Condenser>,
    agg_kind: Option<AggKind>,
}

/// Semantic checks that must fail before any shard work (mirrors the
/// single-engine executor's collection checks).
fn validate(query: &Query) -> Result<()> {
    if let Some(p) = &query.predicate {
        if p.collection != query.from {
            return Err(ClusterError::Query(QueryError::Semantic(format!(
                "WHERE references {:?} but FROM names {:?}",
                p.collection, query.from
            ))));
        }
    }
    access_of(&query.expr).map(|_| ())
}

/// Finds the innermost access of an expression tree, mirroring the
/// single-engine executor's shape restrictions.
fn access_of(expr: &Expr) -> Result<&Expr> {
    match expr {
        Expr::Access { .. } => Ok(expr),
        Expr::Induce { lhs, .. } => access_of(lhs),
        Expr::Condense { arg, .. } => match arg.as_ref() {
            Expr::Condense { .. } => Err(ClusterError::Query(QueryError::Semantic(
                "condensers take an array access as argument, not another condenser".to_string(),
            ))),
            inner => access_of(inner),
        },
    }
}

/// Hull of the shard current-domains (`Ok(None)` = object empty everywhere).
fn hull_of(objects: &[PinnedObject]) -> Result<Option<Domain>> {
    let mut hull: Option<Domain> = None;
    for o in objects {
        if let Some(d) = &o.current_domain {
            hull = Some(match hull {
                None => d.clone(),
                Some(h) => h.hull(d).map_err(tilestore_engine::EngineError::from)?,
            });
        }
    }
    Ok(hull)
}

/// Resolves the query's region against the cluster-wide hull and builds
/// each shard's work item.
fn prepare(query: &Query, map: &ShardMap, objects: &[PinnedObject]) -> Result<Prepared> {
    let access = access_of(&query.expr)?;
    let Expr::Access {
        collection,
        subscript,
    } = access
    else {
        unreachable!("access_of returns an access");
    };
    if collection != &query.from {
        return Err(ClusterError::Query(QueryError::Semantic(format!(
            "expression references {collection:?} but FROM names {:?}",
            query.from
        ))));
    }
    let hull = hull_of(objects)?.ok_or_else(|| {
        ClusterError::Query(QueryError::Engine(
            tilestore_engine::EngineError::EmptyObject(query.from.clone()),
        ))
    })?;
    let (region, fixed_axes) = resolve_subscript(subscript.as_deref(), &hull)?;

    let condenser = match &query.expr {
        Expr::Condense { op, .. } => Some(*op),
        _ => None,
    };
    // Avg is pushed down as Sum; the coordinator divides by the region's
    // cell count once, preserving `sum/cells` semantics exactly.
    let agg_kind = condenser.map(|op| match op {
        Condenser::Sum | Condenser::Avg => AggKind::Sum,
        Condenser::Min => AggKind::Min,
        Condenser::Max => AggKind::Max,
        Condenser::Count => AggKind::CountNonDefault,
        Condenser::Some => AggKind::SomeNonDefault,
        Condenser::All => AggKind::AllNonDefault,
    });

    let work = (0..map.shards())
        .map(|k| match map.clip(k, &region) {
            None => ShardWork::Skip,
            Some(clip) => {
                if objects[k].current_domain.is_some() {
                    ShardWork::Run(rewrite_for_shard(query, &clip).to_string())
                } else {
                    ShardWork::Default(clip)
                }
            }
        })
        .collect();

    Ok(Prepared {
        region,
        fixed_axes,
        work,
        cell: objects[0].mdd_type.cell.clone(),
        condenser,
        agg_kind,
    })
}

/// Mirrors the single-engine `resolve_access` subscript semantics against
/// the cluster-wide hull: `*` bounds resolve to the hull, points become
/// degenerate ranges and mark their axis fixed, fixing every axis is
/// rejected.
fn resolve_subscript(
    subscript: Option<&[AxisSelect]>,
    hull: &Domain,
) -> Result<(Domain, Vec<usize>)> {
    let Some(axes) = subscript else {
        return Ok((hull.clone(), Vec::new()));
    };
    if axes.len() != hull.dim() {
        return Err(ClusterError::Query(QueryError::Semantic(format!(
            "subscript has {} axes, object has {}",
            axes.len(),
            hull.dim()
        ))));
    }
    let mut region = hull.clone();
    let mut fixed_axes = Vec::new();
    for (axis, sel) in axes.iter().enumerate() {
        match sel {
            AxisSelect::All => {}
            AxisSelect::Point(c) => {
                let r = AxisRange::new(*c, *c).expect("degenerate range");
                region = region
                    .with_axis(axis, r)
                    .map_err(tilestore_engine::EngineError::from)?;
                fixed_axes.push(axis);
            }
            AxisSelect::Range { lo, hi } => {
                let lo = lo.unwrap_or_else(|| hull.lo(axis));
                let hi = hi.unwrap_or_else(|| hull.hi(axis));
                let r = AxisRange::new(lo, hi).map_err(|e| {
                    ClusterError::Query(QueryError::Semantic(format!(
                        "axis {axis}: empty range: {e}"
                    )))
                })?;
                region = region
                    .with_axis(axis, r)
                    .map_err(tilestore_engine::EngineError::from)?;
            }
        }
    }
    if fixed_axes.len() == axes.len() {
        return Err(ClusterError::Query(QueryError::Semantic(
            "section fixes every axis; at least one axis must remain".to_string(),
        )));
    }
    Ok((region, fixed_axes))
}

/// Rewrites `query` for one shard: the innermost access gets the clip as an
/// explicit full-arity subscript (points become degenerate ranges so every
/// shard returns a full-dimensional piece; the coordinator projects fixed
/// axes out once), and a top-level `avg_cells` becomes `sum_cells`.
fn rewrite_for_shard(query: &Query, clip: &Domain) -> Query {
    let mut q = query.clone();
    if let Expr::Condense { op, .. } = &mut q.expr {
        if *op == Condenser::Avg {
            *op = Condenser::Sum;
        }
    }
    replace_access(&mut q.expr, clip);
    q
}

fn replace_access(expr: &mut Expr, clip: &Domain) {
    match expr {
        Expr::Access { subscript, .. } => {
            *subscript = Some(
                clip.ranges()
                    .iter()
                    .map(|r| AxisSelect::Range {
                        lo: Some(r.lo()),
                        hi: Some(r.hi()),
                    })
                    .collect(),
            );
        }
        Expr::Induce { lhs, .. } => replace_access(lhs, clip),
        Expr::Condense { arg, .. } => replace_access(arg, clip),
    }
}

/// Computes an empty shard's piece coordinator-side: the clip filled with
/// the cell default, the induce chain applied, aggregated if the query
/// condenses. A `WHERE` predicate is a no-op on all-default data (masked
/// cells read as the default, which the cells already are).
fn default_piece(
    query: &Query,
    clip: &Domain,
    cell: &CellType,
    agg_kind: Option<AggKind>,
) -> Result<(Value, QueryStats)> {
    let inner = match &query.expr {
        Expr::Condense { arg, .. } => arg.as_ref(),
        other => other,
    };
    let (array, out_cell) = eval_default(inner, clip, cell)?;
    let stats = QueryStats {
        cells_defaulted: clip.cells(),
        ..QueryStats::default()
    };
    let value = match agg_kind {
        Some(kind) => agg_to_value(aggregate_array(&out_cell, &array, kind)?),
        None => Value::Array(array),
    };
    Ok((value, stats))
}

/// Evaluates an access-or-induce chain over an all-default array.
fn eval_default(expr: &Expr, clip: &Domain, cell: &CellType) -> Result<(Array, CellType)> {
    match expr {
        Expr::Access { .. } => Ok((Array::filled(clip.clone(), &cell.default)?, cell.clone())),
        Expr::Induce { lhs, op, rhs } => {
            let (a, c) = eval_default(lhs, clip, cell)?;
            Ok(induce_scalar(&c, &a, induced_binop(*op), *rhs)?)
        }
        Expr::Condense { .. } => Err(ClusterError::Query(QueryError::Semantic(
            "condensers produce scalars and cannot be used as array operands".to_string(),
        ))),
    }
}

fn induced_binop(op: InducedOp) -> BinOp {
    match op {
        InducedOp::Add => BinOp::Add,
        InducedOp::Sub => BinOp::Sub,
        InducedOp::Mul => BinOp::Mul,
        InducedOp::Div => BinOp::Div,
        InducedOp::Gt => BinOp::Gt,
        InducedOp::Ge => BinOp::Ge,
        InducedOp::Lt => BinOp::Lt,
        InducedOp::Le => BinOp::Le,
        InducedOp::Eq => BinOp::Eq,
        InducedOp::Ne => BinOp::Ne,
    }
}

fn agg_to_value(value: AggValue) -> Value {
    match value {
        AggValue::Number(v) => Value::Number(v),
        AggValue::Count(v) => Value::Count(v),
        AggValue::Bool(v) => Value::Bool(v),
    }
}

/// Condenser-correct scalar recombination across shard pieces.
fn combine_scalars(op: Condenser, pieces: &[Value], region_cells: u64) -> Result<Value> {
    let bad =
        |what: &str| ClusterError::Config(format!("shard returned a non-{what} piece for {op:?}"));
    let numbers = || -> Result<Vec<f64>> {
        pieces
            .iter()
            .map(|v| match v {
                Value::Number(n) => Ok(*n),
                _ => Err(bad("number")),
            })
            .collect()
    };
    Ok(match op {
        Condenser::Sum => Value::Number(numbers()?.iter().sum()),
        Condenser::Avg => {
            // Per-shard pieces are pushed-down sums; one division at the
            // end reproduces the engine's `sum / all-region-cells`.
            let sum: f64 = numbers()?.iter().sum();
            if region_cells == 0 {
                Value::Number(f64::NAN)
            } else {
                Value::Number(sum / region_cells as f64)
            }
        }
        Condenser::Min => Value::Number(numbers()?.into_iter().fold(f64::INFINITY, f64::min)),
        Condenser::Max => Value::Number(numbers()?.into_iter().fold(f64::NEG_INFINITY, f64::max)),
        Condenser::Count => {
            let mut total = 0u64;
            for v in pieces {
                match v {
                    Value::Count(c) => total += c,
                    _ => return Err(bad("count")),
                }
            }
            Value::Count(total)
        }
        Condenser::Some | Condenser::All => {
            let mut acc = op == Condenser::All;
            for v in pieces {
                match (op, v) {
                    (Condenser::Some, Value::Bool(b)) => acc = acc || *b,
                    (Condenser::All, Value::Bool(b)) => acc = acc && *b,
                    _ => return Err(bad("bool")),
                }
            }
            Value::Bool(acc)
        }
    })
}

/// Pastes the shard pieces into one result slab over `region`, then
/// projects fixed (sectioned) axes out once. The pieces partition the
/// region, so the zero-initialized slab is fully overwritten.
fn combine_arrays(region: &Domain, fixed_axes: &[usize], pieces: Vec<Value>) -> Result<Value> {
    let mut arrays = Vec::with_capacity(pieces.len());
    for p in pieces {
        match p {
            Value::Array(a) => arrays.push(a),
            _ => {
                return Err(ClusterError::Config(
                    "shard returned a scalar piece for an array query".to_string(),
                ))
            }
        }
    }
    let cell_size = arrays
        .first()
        .map(Array::cell_size)
        .ok_or_else(|| ClusterError::Config("no shard produced a piece".to_string()))?;
    let bytes = (region.cells() as usize) * cell_size;
    let mut slab = Array::from_bytes(region.clone(), cell_size, vec![0u8; bytes])?;
    for a in &arrays {
        slab.paste(a)?;
    }
    let out = if fixed_axes.is_empty() {
        slab
    } else {
        let section = region
            .project_out(fixed_axes)
            .map_err(tilestore_engine::EngineError::from)?;
        slab.reshaped(section)?
    };
    Ok(Value::Array(out))
}

/// Extracts the sub-array of `array` covering `clip` (which must be inside
/// the array's domain — clips of the array's own domain always are).
fn extract_sub_array(array: &Array, clip: &Domain) -> Result<Array> {
    let cell_size = array.cell_size();
    let mut buf = vec![0u8; (clip.cells() as usize) * cell_size];
    copy_region(
        array.domain(),
        array.bytes(),
        clip,
        &mut buf,
        clip,
        cell_size,
    )
    .map_err(tilestore_engine::EngineError::from)?;
    Ok(Array::from_bytes(clip.clone(), cell_size, buf)?)
}

/// Renders an epoch set as `[{shard, epoch}, ...]`.
#[must_use]
pub fn epochs_json(epochs: &[ShardEpoch]) -> Json {
    Json::Array(
        epochs
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("shard", Json::UInt(e.shard as u64)),
                    ("epoch", Json::UInt(e.epoch)),
                ])
            })
            .collect(),
    )
}
