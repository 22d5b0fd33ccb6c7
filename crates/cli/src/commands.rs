//! CLI command implementations, separated from I/O for testability.

use std::fmt::Write as _;
use std::path::Path;

use tilestore_compress::CompressionPolicy;
use tilestore_engine::CachedFileStore;
use tilestore_engine::{Array, CellType, Database, MddType};
use tilestore_geometry::{DefDomain, Domain};
use tilestore_rasql::Value;
use tilestore_storage::CostModel;
use tilestore_tiling::{RetileSpec, Scheme};

/// Errors surfaced to the CLI user as plain messages.
pub type CliResult<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Opens an existing database directory.
pub fn open(dir: &Path) -> CliResult<Database<CachedFileStore>> {
    Database::open_dir(dir).map_err(err)
}

/// Creates a fresh database directory.
pub fn init(dir: &Path) -> CliResult<String> {
    let db = Database::create_dir(dir).map_err(err)?;
    db.save(dir).map_err(err)?;
    Ok(format!("created database at {}", dir.display()))
}

/// Parses a cell type name.
pub fn parse_cell_type(name: &str) -> CliResult<CellType> {
    let size = match name {
        "u8" | "i8" => 1,
        "u16" | "i16" => 2,
        "u32" | "i32" | "f32" => 4,
        "u64" | "i64" | "f64" => 8,
        "rgb" => 3,
        other => return Err(format!("unknown cell type {other:?}")),
    };
    Ok(CellType::zeroed(name, size))
}

/// Parses a scheme spec:
/// `regular:<maxKB>` | `aligned:<config>:<maxKB>` |
/// `directional:<axis>=p1/p2/...[,<axis>=...]:<maxKB>` | `single`.
pub fn parse_scheme(spec: &str, dim: usize) -> CliResult<Scheme> {
    // The grammar lives in the tiling crate so the server's retile request
    // accepts exactly the same specs as the CLI.
    tilestore_tiling::parse_scheme_spec(spec, dim)
}

/// `create <name> <celltype> <dim> [scheme]`.
pub fn create(
    db: &Database<CachedFileStore>,
    name: &str,
    cell: &str,
    dim: usize,
    scheme: Option<&str>,
) -> CliResult<String> {
    let cell = parse_cell_type(cell)?;
    let scheme = match scheme {
        Some(spec) => parse_scheme(spec, dim)?,
        None => Scheme::default_for(dim),
    };
    let def = DefDomain::unlimited(dim).map_err(err)?;
    db.create_object(name, MddType::new(cell, def), scheme)
        .map_err(err)?;
    Ok(format!("created object {name:?} ({dim}-D)"))
}

/// `load <name> <domain> <pattern>` — synthesize and insert data.
/// Patterns: `zero`, `gradient`, `checker`, `random:<seed>`.
pub fn load(
    db: &Database<CachedFileStore>,
    name: &str,
    domain: &str,
    pattern: &str,
) -> CliResult<String> {
    let domain: Domain = domain.parse().map_err(err)?;
    let meta = db.object(name).map_err(err)?;
    let cell_size = meta.cell_size();
    let array = synthesize(&domain, cell_size, pattern)?;
    let stats = db.insert(name, &array).map_err(err)?;
    Ok(format!(
        "loaded {} as {} tiles ({} pages)",
        domain, stats.tiles_created, stats.pages_written
    ))
}

fn synthesize(domain: &Domain, cell_size: usize, pattern: &str) -> CliResult<Array> {
    let cells = domain.cell_count().map_err(err)? as usize;
    let mut data = vec![0u8; cells * cell_size];
    match pattern.split(':').next().unwrap_or("zero") {
        "zero" => {}
        "gradient" => {
            for (i, chunk) in data.chunks_exact_mut(cell_size).enumerate() {
                let v = (i % 251) as u8;
                for (lane, b) in chunk.iter_mut().enumerate() {
                    *b = v.wrapping_add(lane as u8);
                }
            }
        }
        "checker" => {
            for (i, chunk) in data.chunks_exact_mut(cell_size).enumerate() {
                let v = if i % 2 == 0 { 0xFF } else { 0x00 };
                chunk.fill(v);
            }
        }
        "random" => {
            let seed: u64 = pattern
                .split_once(':')
                .map_or(Ok(42), |(_, s)| s.parse())
                .map_err(|e| format!("bad seed: {e}"))?;
            let mut x = seed | 1;
            for b in &mut data {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = (x >> 33) as u8;
            }
        }
        other => return Err(format!("unknown pattern {other:?}")),
    }
    Array::from_bytes(domain.clone(), cell_size, data).map_err(err)
}

/// `query <rasql>` — run a query and render the result.
pub fn query(db: &Database<CachedFileStore>, text: &str) -> CliResult<String> {
    let snap = db.begin_read();
    let (value, stats) = tilestore_rasql::execute(&snap, text).map_err(err)?;
    let model = CostModel::classic_disk();
    let times = stats.times(&model);
    let mut out = String::new();
    match value {
        Value::Array(a) => {
            writeln!(
                out,
                "array over {} ({} cells)",
                a.domain(),
                a.domain().cells()
            )
            .expect("string write");
            if a.domain().cells() <= 64 && a.cell_size() <= 8 {
                writeln!(out, "{}", render_small(&a)).expect("string write");
            }
        }
        Value::Number(n) => writeln!(out, "{n}").expect("string write"),
        Value::Count(c) => writeln!(out, "{c} cells").expect("string write"),
        Value::Bool(b) => writeln!(out, "{b}").expect("string write"),
    }
    write!(
        out,
        "[epoch {}; {} tiles, {} pruned, {} pages, {} bytes read; model t_total={:.4}s]",
        snap.epoch(),
        stats.tiles_read,
        stats.tiles_pruned,
        stats.io.pages_read,
        stats.io.bytes_read,
        times.total_cpu()
    )
    .expect("string write");
    Ok(out)
}

/// `explain <rasql>` — print the planner's per-tile decisions without (or,
/// with `EXPLAIN ANALYZE`, alongside) executing the statement. A bare query
/// is wrapped as `EXPLAIN <query>`; a statement that already starts with
/// `EXPLAIN` runs as written.
pub fn explain(db: &Database<CachedFileStore>, text: &str) -> CliResult<String> {
    let stmt = normalize_explain(text);
    let snap = db.begin_read();
    match tilestore_rasql::execute_statement(&snap, &stmt).map_err(err)? {
        tilestore_rasql::StatementResult::Explain(report) => Ok(render_explain(&report)),
        tilestore_rasql::StatementResult::Value(..) => {
            Err("statement executed instead of explaining; prefix it with EXPLAIN".to_string())
        }
    }
}

fn normalize_explain(text: &str) -> String {
    let head = text.trim_start();
    let already = head
        .get(..7)
        .is_some_and(|w| w.eq_ignore_ascii_case("explain"))
        && head[7..].starts_with(char::is_whitespace);
    if already {
        text.to_string()
    } else {
        format!("EXPLAIN {text}")
    }
}

/// Human-readable rendering of an EXPLAIN report: one line per candidate
/// tile with the decision and the rule that fired, then the totals (and the
/// measured counters when the statement was ANALYZEd).
fn render_explain(report: &tilestore_rasql::ExplainReport) -> String {
    let plan = &report.plan;
    let mut out = String::new();
    write!(out, "object {} region {}", plan.object, plan.region).expect("string write");
    if let Some(p) = &plan.predicate {
        write!(out, " where {p}").expect("string write");
    }
    if let Some(c) = plan.condenser {
        write!(out, " condense {c}").expect("string write");
    }
    writeln!(out, " [epoch {}]", plan.epoch).expect("string write");
    for t in &plan.tiles {
        writeln!(
            out,
            "  tile {:>4} {:<24} {:<10} {}",
            t.tile,
            t.domain,
            t.decision.as_str(),
            t.rule
        )
        .expect("string write");
    }
    write!(
        out,
        "{} candidates via {} index nodes: {} fetched, {} pruned",
        plan.tiles.len(),
        plan.index_nodes,
        plan.fetched(),
        plan.pruned()
    )
    .expect("string write");
    if let Some(a) = &report.analyze {
        write!(
            out,
            "\nanalyze: {} tiles read, {} pruned, {} pages, {} cache hits, {} misses, {:.3} ms",
            a.stats.tiles_read,
            a.stats.tiles_pruned,
            a.stats.io.pages_read,
            a.stats.io.cache_hits,
            a.stats.io.cache_misses,
            a.elapsed_ns as f64 / 1e6
        )
        .expect("string write");
    }
    out
}

/// Renders a tiny array as hex rows (debug aid).
fn render_small(a: &Array) -> String {
    let mut out = String::new();
    for (i, chunk) in a.bytes().chunks(a.cell_size()).enumerate() {
        if i > 0 {
            out.push(' ');
        }
        for b in chunk {
            write!(out, "{b:02x}").expect("string write");
        }
    }
    out
}

/// `info` / `info <name>`.
pub fn info(db: &Database<CachedFileStore>, name: Option<&str>) -> CliResult<String> {
    let mut out = String::new();
    match name {
        None => {
            writeln!(out, "objects: {}", db.object_names().join(", ")).expect("string write");
            let io = db.io_stats().snapshot();
            write!(
                out,
                "session I/O: {} pages read, {} pages written",
                io.pages_read, io.pages_written
            )
            .expect("string write");
        }
        Some(name) => {
            let meta = db.object(name).map_err(err)?;
            writeln!(out, "object:        {name}").expect("string write");
            writeln!(
                out,
                "cell type:     {} ({} B)",
                meta.mdd_type.cell.name,
                meta.cell_size()
            )
            .expect("string write");
            writeln!(out, "definition:    {}", meta.mdd_type.definition).expect("string write");
            match &meta.current_domain {
                Some(cur) => writeln!(out, "current:       {cur}").expect("string write"),
                None => writeln!(out, "current:       (empty)").expect("string write"),
            }
            writeln!(out, "tiles:         {}", meta.tile_count()).expect("string write");
            writeln!(out, "logical bytes: {}", meta.stored_bytes()).expect("string write");
            let phys = db.object_physical_bytes(name).map_err(err)?;
            writeln!(out, "physical bytes:{phys}").expect("string write");
            write!(out, "scheme:        {:?}", meta.scheme).expect("string write");
        }
    }
    Ok(out)
}

/// `compress <name> <none|selective>` — set policy and rewrite tiles.
pub fn compress(db: &Database<CachedFileStore>, name: &str, policy: &str) -> CliResult<String> {
    let policy = match policy {
        "none" => CompressionPolicy::None,
        "selective" => CompressionPolicy::selective_default(),
        other => return Err(format!("unknown policy {other:?} (none|selective)")),
    };
    db.set_compression(name, policy).map_err(err)?;
    let scheme = db.object(name).map_err(err)?.scheme.clone();
    let before = db.object_physical_bytes(name).map_err(err)?;
    db.retile(name, scheme).map_err(err)?;
    let after = db.object_physical_bytes(name).map_err(err)?;
    Ok(format!("rewrote tiles: {before} -> {after} physical bytes"))
}

/// `retile <name> <spec>` where the spec follows the shared
/// [`tilestore_tiling::RETILE_USAGE`] grammar: a scheme,
/// `--from-log[:<dist>:<freq>:<maxKB>]` (statistic tiling over the
/// recorded access log, §5.4), or `--defrag[:<budgetKB>]` (curve-ordered
/// physical compaction; a budget paces it in bounded commits).
pub fn retile(db: &Database<CachedFileStore>, name: &str, spec: &str) -> CliResult<String> {
    let parsed = tilestore_tiling::parse_retile_spec(spec)?;
    let stats = db.retile_spec(name, &parsed).map_err(err)?.stats;
    Ok(match parsed {
        RetileSpec::FromLog { .. } => format!(
            "retiled from access log: {} -> {} tiles",
            stats.tiles_before, stats.tiles_after
        ),
        RetileSpec::Defrag { .. } => format!(
            "defragmented: {} tiles, {} bytes rewritten",
            stats.tiles_after, stats.bytes_rewritten
        ),
        RetileSpec::Scheme(_) => format!(
            "retiled: {} -> {} tiles",
            stats.tiles_before, stats.tiles_after
        ),
    })
}

/// `stats` — database-wide I/O counters, per-object tile counts, the
/// recorded access log size, and the process-wide metric histograms.
pub fn stats(db: &Database<CachedFileStore>) -> CliResult<String> {
    let mut out = String::new();
    writeln!(out, "objects:").expect("string write");
    for name in db.object_names() {
        let meta = db.object(&name).map_err(err)?;
        let phys = db.object_physical_bytes(&name).map_err(err)?;
        writeln!(
            out,
            "  {name}: {} tiles, {} logical bytes, {phys} physical bytes",
            meta.tile_count(),
            meta.stored_bytes()
        )
        .expect("string write");
    }
    let io = db.io_stats().snapshot();
    writeln!(
        out,
        "session I/O: {} pages read, {} pages written, {} blobs read, {} blobs written",
        io.pages_read, io.pages_written, io.blobs_read, io.blobs_written
    )
    .expect("string write");
    writeln!(
        out,
        "cache: {} hits, {} misses",
        io.cache_hits, io.cache_misses
    )
    .expect("string write");
    if let Some(rec) = db.recorder() {
        let total = rec.total_accesses().map_err(err)?;
        writeln!(out, "access log: {total} recorded accesses").expect("string write");
    }
    let snap = tilestore_obs::metrics().snapshot();
    writeln!(out, "metrics:").expect("string write");
    for (name, value) in &snap.counters {
        writeln!(out, "  {name} = {value}").expect("string write");
    }
    for (name, h) in &snap.histograms {
        writeln!(out, "  {name}: {}", h.summary()).expect("string write");
    }
    Ok(out.trim_end().to_string())
}

/// `trace <rasql>` — run one query with the tracer enabled and return the
/// recorded span/event stream as JSON Lines.
pub fn trace(db: &Database<CachedFileStore>, text: &str) -> CliResult<String> {
    let tracer = tilestore_obs::tracer();
    tracer.enable(4096);
    let result = tilestore_rasql::execute(&db.begin_read(), text);
    tracer.disable();
    let jsonl = tracer.drain_jsonl();
    let (_, stats) = result.map_err(err)?;
    let mut out = String::new();
    write!(out, "{jsonl}").expect("string write");
    write!(
        out,
        "[{} tiles, {} pages read, {} ns]",
        stats.tiles_read, stats.io.pages_read, stats.elapsed_ns
    )
    .expect("string write");
    Ok(out)
}

/// `delete <name> <domain>` — remove a region's cells (shrinkage).
pub fn delete(db: &Database<CachedFileStore>, name: &str, domain: &str) -> CliResult<String> {
    let region: Domain = domain.parse().map_err(err)?;
    let stats = db.delete_region(name, &region).map_err(err)?;
    Ok(format!(
        "removed {} cells ({} tiles dropped, {} split)",
        stats.cells_removed, stats.tiles_dropped, stats.tiles_split
    ))
}

/// `drop <name>`.
pub fn drop_object(db: &Database<CachedFileStore>, name: &str) -> CliResult<String> {
    db.drop_object(name).map_err(err)?;
    Ok(format!("dropped {name:?}"))
}

/// `fsck` — audit the database directory: catalog vs page file accounting,
/// per-BLOB checksum verification, tile reference resolution, interrupted
/// commits. Read-only; errors when inconsistencies are found (reopening
/// the database repairs the repairable ones).
pub fn fsck(dir: &Path) -> CliResult<String> {
    let report = tilestore_engine::fsck(dir).map_err(err)?;
    if report.is_clean() {
        Ok(format!("{report}"))
    } else {
        Err(format!("{report}"))
    }
}

/// `serve <addr> [slow-ms]` — serve the database over TCP until a client
/// sends `shutdown` (or the process is killed). Prints the bound address up
/// front so scripts can connect to an ephemeral `:0` port. `slow-ms`
/// overrides the slow-query-log threshold (0 logs every statement).
pub fn serve(dir: &Path, addr: &str, slow_ms: Option<u64>) -> CliResult<String> {
    let db = open(dir)?;
    let shared = tilestore_engine::SharedDatabase::new(db);
    let mut config = tilestore_server::ServerConfig::default();
    if let Some(ms) = slow_ms {
        config.slow_query_ms = ms;
    }
    let handle = tilestore_server::serve(shared, Some(dir.to_path_buf()), addr, config);
    run_until_shutdown(handle, "server stopped")
}

/// The tail of every serving command: announce the bound address (flushed,
/// so a script waiting on an ephemeral `:0` port sees it at once), then
/// block until a client's `shutdown` has drained and saved the endpoint.
fn run_until_shutdown(
    handle: std::io::Result<tilestore_server::ServerHandle>,
    stopped: &str,
) -> CliResult<String> {
    use std::io::Write as _;
    let handle = handle.map_err(err)?;
    println!("listening on {}", handle.addr());
    std::io::stdout().flush().ok();
    handle.join();
    Ok(stopped.to_string())
}

/// `client <addr> <op> [args...]` — remote counterparts of the local
/// commands, talking to a `serve` instance.
pub fn client(addr: &str, op: &str, args: &[String]) -> CliResult<String> {
    use tilestore_server::{Client, RemoteValue};
    let mut c = Client::connect(addr).map_err(err)?;
    match (op, args) {
        ("ping", []) => {
            c.ping().map_err(err)?;
            Ok("pong".to_string())
        }
        ("query", [q]) => {
            let mut out = String::new();
            match c.query(q).map_err(err)? {
                RemoteValue::Array {
                    domain,
                    cell_size,
                    cells,
                } => {
                    writeln!(out, "array over {domain} ({} cells)", domain.cells())
                        .expect("string write");
                    if domain.cells() <= 64 && cell_size <= 8 {
                        for (i, chunk) in cells.chunks(cell_size).enumerate() {
                            if i > 0 {
                                out.push(' ');
                            }
                            for b in chunk {
                                write!(out, "{b:02x}").expect("string write");
                            }
                        }
                    }
                }
                RemoteValue::Number(n) => write!(out, "{n}").expect("string write"),
                RemoteValue::Count(n) => write!(out, "{n} cells").expect("string write"),
                RemoteValue::Bool(b) => write!(out, "{b}").expect("string write"),
            }
            let mut out = out.trim_end().to_string();
            write!(out, "\n[request {}]", c.last_request_id()).expect("string write");
            Ok(out)
        }
        ("explain", args @ ([_] | [_, _])) => {
            let analyze = match args {
                [_, flag] if flag.as_str() == "--analyze" => true,
                [_] => false,
                _ => return Err("explain <rasql> [--analyze]".to_string()),
            };
            let report = c.explain(&args[0], analyze).map_err(err)?;
            let mut out = report.to_string_pretty();
            write!(out, "\n[request {}]", c.last_request_id()).expect("string write");
            Ok(out)
        }
        ("metrics", []) => Ok(c.metrics().map_err(err)?.to_string_pretty()),
        ("health", []) => {
            let report = c.health().map_err(err)?;
            let ok = report.get("status").and_then(|j| j.as_str()) == Some("ok");
            if ok {
                Ok(report.to_string_pretty())
            } else {
                Err(report.to_string_pretty())
            }
        }
        ("top", args @ ([] | [_])) => {
            let limit = match args {
                [n] => n.parse().map_err(|e| format!("bad limit: {e}"))?,
                _ => 16,
            };
            let slow = c.slow_queries(limit).map_err(err)?;
            let mut out = String::new();
            writeln!(
                out,
                "slow queries (threshold {} ms, {} recorded), newest first:",
                slow.get("threshold_ms")
                    .and_then(|j| j.as_u64())
                    .unwrap_or(0),
                slow.get("count").and_then(|j| j.as_u64()).unwrap_or(0)
            )
            .expect("string write");
            let entries = match slow.get("entries") {
                Some(tilestore_testkit::Json::Array(items)) => items.as_slice(),
                _ => &[],
            };
            for e in entries {
                let get = |k: &str| e.get(k).and_then(|j| j.as_u64()).unwrap_or(0);
                writeln!(
                    out,
                    "  req {:>6}  {:>9.3} ms  epoch {:>3}  {} tiles  {}",
                    get("request_id"),
                    get("elapsed_ns") as f64 / 1e6,
                    get("epoch"),
                    e.get("stats")
                        .and_then(|s| s.get("tiles_read"))
                        .and_then(|j| j.as_u64())
                        .unwrap_or(0),
                    e.get("statement").and_then(|j| j.as_str()).unwrap_or("?")
                )
                .expect("string write");
            }
            Ok(out.trim_end().to_string())
        }
        ("load", [name, domain, pattern]) => {
            let info = c.info(name).map_err(err)?;
            let cell_size = info
                .get("cell_size")
                .and_then(|j| j.as_u64())
                .ok_or("server info lacks cell_size")? as usize;
            let domain: Domain = domain.parse().map_err(err)?;
            let array = synthesize(&domain, cell_size, pattern)?;
            let stats = c.insert(name, &array).map_err(err)?;
            Ok(format!(
                "loaded {domain} as {} tiles",
                stats
                    .get("tiles_created")
                    .and_then(|j| j.as_u64())
                    .unwrap_or(0)
            ))
        }
        ("retile", [name, scheme]) => {
            let stats = c.retile(name, scheme).map_err(err)?;
            Ok(format!(
                "retiled {name:?}: {} -> {} tiles",
                stats
                    .get("tiles_before")
                    .and_then(|j| j.as_u64())
                    .unwrap_or(0),
                stats
                    .get("tiles_after")
                    .and_then(|j| j.as_u64())
                    .unwrap_or(0)
            ))
        }
        ("info", [name]) => Ok(c.info(name).map_err(err)?.to_string_pretty()),
        ("stats", []) => Ok(c.stats().map_err(err)?.to_string_pretty()),
        ("fsck", []) => {
            let report = c.fsck().map_err(err)?;
            let clean = report.get("clean").and_then(|j| j.as_bool()) == Some(true);
            if clean {
                Ok(report.to_string_pretty())
            } else {
                Err(report.to_string_pretty())
            }
        }
        ("cluster", []) => {
            let report = c.health().map_err(err)?;
            match report.get("cluster") {
                Some(cluster) => Ok(cluster.to_string_pretty()),
                None => Err("server is not a cluster coordinator".to_string()),
            }
        }
        ("shutdown", []) => {
            c.shutdown_server().map_err(err)?;
            Ok("server shutting down".to_string())
        }
        _ => Err(format!(
            "unknown client op {op:?} (or wrong arguments); ops: ping, query <rasql>, \
             explain <rasql> [--analyze], load <name> <domain> <pattern>, \
             retile <name> <scheme>, info <name>, stats, metrics, health, \
             cluster, top [limit], fsck, shutdown"
        )),
    }
}

// ---------------------------------------------------------------------------
// Cluster commands: a database directory containing `cluster.json` is a
// sharded store — N ordinary shard databases under `shard-<k>/` plus the
// shard map. All data commands route through a local Coordinator so the
// same CLI verbs work unchanged.
// ---------------------------------------------------------------------------

use std::sync::Arc;

use tilestore_cluster::{
    serve_cluster, ClusterConfig, ClusterManifest, ClusterStatement, Coordinator, RemoteShard,
    ShardBackend, ShardMap,
};
use tilestore_engine::SharedDatabase;
use tilestore_exec::ThreadPool;

/// Whether `dir` is a cluster root (holds a `cluster.json` manifest).
pub fn is_cluster(dir: &Path) -> bool {
    ClusterManifest::exists(dir)
}

/// `cluster-init <shards> [axis] [slab]` — create a cluster root: a shard
/// map cutting `axis` into even slabs of `slab` cells starting at 0, plus
/// one fresh shard database per sub-domain.
pub fn cluster_init(dir: &Path, shards: usize, axis: usize, slab: u64) -> CliResult<String> {
    if is_cluster(dir) {
        return Err(format!("{} is already a cluster root", dir.display()));
    }
    std::fs::create_dir_all(dir).map_err(err)?;
    let map = ShardMap::even(axis, shards, 0, slab).map_err(err)?;
    for k in 0..shards {
        let shard_dir = ClusterManifest::shard_dir(dir, k);
        let db = Database::create_dir(&shard_dir).map_err(err)?;
        db.save(&shard_dir).map_err(err)?;
    }
    let manifest = ClusterManifest { map };
    manifest.save(dir).map_err(err)?;
    Ok(format!(
        "created cluster at {} ({shards} shards, axis {axis}, slab {slab})",
        dir.display()
    ))
}

/// Opens a cluster root as a coordinator over local shard databases.
pub fn open_cluster(dir: &Path) -> CliResult<Coordinator<CachedFileStore>> {
    let manifest = ClusterManifest::load(dir).map_err(err)?;
    let mut backends = Vec::with_capacity(manifest.map.shards());
    for k in 0..manifest.map.shards() {
        let shard_dir = ClusterManifest::shard_dir(dir, k);
        let db = Database::open_dir(&shard_dir)
            .map_err(|e| format!("shard {k} ({}): {e}", shard_dir.display()))?;
        backends.push(ShardBackend::Local(SharedDatabase::new(db)));
    }
    Coordinator::new(manifest.map, backends, Arc::new(ThreadPool::new(2))).map_err(err)
}

/// `create` on a cluster root: broadcast to every shard.
pub fn cluster_create(
    coord: &Coordinator<CachedFileStore>,
    name: &str,
    cell: &str,
    dim: usize,
    scheme: Option<&str>,
) -> CliResult<String> {
    let cell = parse_cell_type(cell)?;
    let scheme = match scheme {
        Some(spec) => parse_scheme(spec, dim)?,
        None => Scheme::default_for(dim),
    };
    let def = DefDomain::unlimited(dim).map_err(err)?;
    coord
        .create_object(name, MddType::new(cell, def), scheme)
        .map_err(err)?;
    Ok(format!(
        "created object {name:?} ({dim}-D) on {} shards",
        coord.shards()
    ))
}

/// `load` on a cluster root: each shard receives its clip of the array.
pub fn cluster_load(
    coord: &Coordinator<CachedFileStore>,
    name: &str,
    domain: &str,
    pattern: &str,
) -> CliResult<String> {
    let domain: Domain = domain.parse().map_err(err)?;
    let info = coord.info(name).map_err(err)?;
    let cell_size = info
        .get("cell_size")
        .and_then(|j| j.as_u64())
        .ok_or("cluster info lacks cell_size")? as usize;
    let array = synthesize(&domain, cell_size, pattern)?;
    let write = coord.insert(name, &array).map_err(err)?;
    let merged = write.merged();
    Ok(format!(
        "loaded {} across {} shard(s) as {} tiles",
        domain,
        write.per_shard.len(),
        merged.tiles_created
    ))
}

/// `query` on a cluster root: scatter, gather, and render with the merged
/// counters and the pinned epoch set.
pub fn cluster_query(coord: &Coordinator<CachedFileStore>, text: &str) -> CliResult<String> {
    match coord.execute(text).map_err(err)? {
        ClusterStatement::Explain(report) => Ok(report.render()),
        ClusterStatement::Value(v) => {
            let mut out = String::new();
            match &v.value {
                Value::Array(a) => {
                    writeln!(
                        out,
                        "array over {} ({} cells)",
                        a.domain(),
                        a.domain().cells()
                    )
                    .expect("string write");
                    if a.domain().cells() <= 64 && a.cell_size() <= 8 {
                        writeln!(out, "{}", render_small(a)).expect("string write");
                    }
                }
                Value::Number(n) => writeln!(out, "{n}").expect("string write"),
                Value::Count(c) => writeln!(out, "{c} cells").expect("string write"),
                Value::Bool(b) => writeln!(out, "{b}").expect("string write"),
            }
            let epochs: Vec<String> = v
                .epochs
                .iter()
                .map(|e| format!("{}@{}", e.shard, e.epoch))
                .collect();
            write!(
                out,
                "[epochs {}; {} tiles, {} pruned, {} bytes read]",
                epochs.join(" "),
                v.stats.tiles_read,
                v.stats.tiles_pruned,
                v.stats.io.bytes_read
            )
            .expect("string write");
            Ok(out)
        }
    }
}

/// `explain` on a cluster root (wraps bare queries like the local command).
pub fn cluster_explain(coord: &Coordinator<CachedFileStore>, text: &str) -> CliResult<String> {
    let stmt = normalize_explain(text);
    match coord.execute(&stmt).map_err(err)? {
        ClusterStatement::Explain(report) => Ok(report.render()),
        ClusterStatement::Value(..) => {
            Err("statement executed instead of explaining; prefix it with EXPLAIN".to_string())
        }
    }
}

/// `info` / `info <name>` on a cluster root.
pub fn cluster_info(coord: &Coordinator<CachedFileStore>, name: Option<&str>) -> CliResult<String> {
    match name {
        Some(name) => Ok(coord.info(name).map_err(err)?.to_string_pretty()),
        None => {
            let mut out = String::new();
            writeln!(
                out,
                "objects: {}",
                coord.object_names().map_err(err)?.join(", ")
            )
            .expect("string write");
            write!(out, "{}", coord.status().to_string_pretty()).expect("string write");
            Ok(out)
        }
    }
}

/// `retile <name> <spec>` on a cluster root: same grammar as the
/// single-node command; every shard re-tiles (or defragments) its
/// sub-domain under one write gate. `--from-log` surfaces the
/// coordinator's typed unsupported error.
pub fn cluster_retile(
    coord: &Coordinator<CachedFileStore>,
    name: &str,
    spec: &str,
) -> CliResult<String> {
    let defrag = matches!(
        tilestore_tiling::parse_retile_spec(spec),
        Ok(RetileSpec::Defrag { .. })
    );
    let write = coord.retile(name, spec).map_err(err)?;
    let merged = write.merged();
    if defrag {
        return Ok(format!(
            "defragmented on {} shard(s): {} tiles, {} bytes rewritten",
            write.per_shard.len(),
            merged.tiles_after,
            merged.bytes_rewritten
        ));
    }
    Ok(format!(
        "retiled on {} shard(s): {} -> {} tiles",
        write.per_shard.len(),
        merged.tiles_before,
        merged.tiles_after
    ))
}

/// `serve <addr>` on a cluster root: scatter-gather serving over the
/// ordinary wire protocol, backed by the local shard databases.
pub fn cluster_serve(dir: &Path, addr: &str) -> CliResult<String> {
    let coord = open_cluster(dir)?;
    let handle = serve_cluster(
        Arc::new(coord),
        Some(dir.to_path_buf()),
        addr,
        ClusterConfig::default(),
    );
    run_until_shutdown(handle, "cluster server stopped")
}

/// `cluster-serve <addr> <shard-addr,...>` — coordinator over REMOTE shard
/// servers: the manifest in `dir` supplies the shard map, each listed
/// address is an ordinary `tilestore serve` instance holding that shard's
/// sub-domain.
pub fn cluster_serve_remote(dir: &Path, addr: &str, shard_addrs: &str) -> CliResult<String> {
    let manifest = ClusterManifest::load(dir).map_err(err)?;
    let addrs: Vec<&str> = shard_addrs.split(',').filter(|a| !a.is_empty()).collect();
    if addrs.len() != manifest.map.shards() {
        return Err(format!(
            "map has {} shards but {} address(es) given",
            manifest.map.shards(),
            addrs.len()
        ));
    }
    let backends: Vec<ShardBackend<CachedFileStore>> = addrs
        .iter()
        .map(|a| ShardBackend::Remote(RemoteShard::new((*a).to_string())))
        .collect();
    let coord =
        Coordinator::new(manifest.map, backends, Arc::new(ThreadPool::new(2))).map_err(err)?;
    let handle = serve_cluster(Arc::new(coord), None, addr, ClusterConfig::default());
    run_until_shutdown(handle, "cluster server stopped")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (tilestore_testkit::TempDir, Database<CachedFileStore>) {
        let dir = tilestore_testkit::tempdir().unwrap();
        init(dir.path()).unwrap();
        let db = open(dir.path()).unwrap();
        (dir, db)
    }

    #[test]
    fn init_create_load_query_cycle() {
        let (dir, db) = fresh();
        create(&db, "img", "u8", 2, Some("regular:4")).unwrap();
        load(&db, "img", "[0:63,0:63]", "gradient").unwrap();
        let out = query(&db, "SELECT img[0:7,0:7] FROM img").unwrap();
        assert!(out.contains("array over [0:7,0:7]"), "{out}");
        let out = query(&db, "SELECT count_cells(img) FROM img").unwrap();
        assert!(out.contains("cells"), "{out}");
        db.save(dir.path()).unwrap();
        // Reopen and query again.
        let db2 = open(dir.path()).unwrap();
        let out = query(&db2, "SELECT max_cells(img) FROM img").unwrap();
        assert!(out.contains('\n'), "{out}");
    }

    #[test]
    fn query_where_clause_reports_pruned_tiles() {
        let (_dir, db) = fresh();
        create(&db, "img", "u8", 2, Some("regular:1")).unwrap();
        load(&db, "img", "[0:63,0:63]", "gradient").unwrap();
        // Gradient u8 cells never exceed 250, so every tile is pruned by
        // its synopsis and no cell survives the mask.
        let out = query(&db, "SELECT count_cells(img) FROM img WHERE img > 250").unwrap();
        assert!(out.starts_with("0 cells"), "{out}");
        assert!(out.contains("pruned"), "{out}");
        assert!(!out.contains(" 0 pruned"), "{out}");
        // The trailer also appears (with zero pruned) on plain queries.
        let out = query(&db, "SELECT count_cells(img) FROM img").unwrap();
        assert!(out.contains(" pruned,"), "{out}");
    }

    #[test]
    fn explain_command_renders_tile_decisions() {
        let (_dir, db) = fresh();
        create(&db, "img", "u8", 2, Some("regular:1")).unwrap();
        load(&db, "img", "[0:63,0:63]", "gradient").unwrap();
        // A bare query is wrapped as EXPLAIN; gradient u8 never exceeds
        // 250, so every tile is pruned by its synopsis extrema.
        let out = explain(&db, "SELECT count_cells(img) FROM img WHERE img > 250").unwrap();
        assert!(out.contains("prune"), "{out}");
        assert!(out.contains("0 fetched"), "{out}");
        assert!(out.contains("tile"), "{out}");
        // A full EXPLAIN ANALYZE statement runs as written and reports the
        // measured counters alongside the plan.
        let out = explain(
            &db,
            "EXPLAIN ANALYZE SELECT count_cells(img) FROM img WHERE img > 250",
        )
        .unwrap();
        assert!(out.contains("analyze:"), "{out}");
        // A statement that fetches tiles, run twice: the analyzed third run
        // is served from the buffer pool and reports its own cache hits.
        for _ in 0..2 {
            query(&db, "SELECT sum_cells(img) FROM img").unwrap();
        }
        let out = explain(&db, "EXPLAIN ANALYZE SELECT sum_cells(img) FROM img").unwrap();
        assert!(out.contains(" cache hits, 0 misses"), "{out}");
        assert!(!out.contains(" 0 cache hits"), "{out}");
        // Induced expressions carry no tile plan.
        assert!(explain(&db, "SELECT img + 1 FROM img").is_err());
    }

    #[test]
    fn info_renders_object_details() {
        let (_dir, db) = fresh();
        create(&db, "vol", "f32", 3, None).unwrap();
        load(&db, "vol", "[0:9,0:9,0:9]", "random:7").unwrap();
        let text = info(&db, Some("vol")).unwrap();
        assert!(text.contains("cell type:     f32"), "{text}");
        assert!(text.contains("current:       [0:9,0:9,0:9]"), "{text}");
        let listing = info(&db, None).unwrap();
        assert!(listing.contains("vol"), "{listing}");
    }

    #[test]
    fn scheme_parsing() {
        assert!(parse_scheme("regular:64", 2).is_ok());
        assert!(parse_scheme("single", 3).is_ok());
        assert!(parse_scheme("aligned:[*,1]:32", 2).is_ok());
        let s = parse_scheme("directional:0=1/31/60:64", 2).unwrap();
        assert!(matches!(s, Scheme::Directional(_)));
        assert!(parse_scheme("bogus", 2).is_err());
        assert!(parse_scheme("aligned", 2).is_err());
        assert!(parse_scheme("directional:0-1", 2).is_err());
        assert!(parse_scheme("regular:x", 2).is_err());
    }

    #[test]
    fn compress_and_retile_commands() {
        let (_dir, db) = fresh();
        create(&db, "m", "u32", 2, Some("regular:8")).unwrap();
        load(&db, "m", "[0:63,0:63]", "zero").unwrap();
        let msg = compress(&db, "m", "selective").unwrap();
        assert!(msg.contains("->"), "{msg}");
        let phys = db.object_physical_bytes("m").unwrap();
        assert!(phys < 1024, "all-zero object compresses tiny: {phys}");
        let msg = retile(&db, "m", "regular:16").unwrap();
        assert!(msg.contains("tiles"), "{msg}");
        assert!(compress(&db, "m", "lzma").is_err());
    }

    #[test]
    fn delete_command_shrinks_object() {
        let (_dir, db) = fresh();
        create(&db, "m", "u16", 2, Some("regular:2")).unwrap();
        load(&db, "m", "[0:31,0:31]", "gradient").unwrap();
        let msg = delete(&db, "m", "[16:31,0:31]").unwrap();
        assert!(msg.contains("removed 512 cells"), "{msg}");
        let text = info(&db, Some("m")).unwrap();
        assert!(text.contains("current:       [0:15,0:31]"), "{text}");
        assert!(delete(&db, "m", "not-a-domain").is_err());
    }

    #[test]
    fn drop_and_errors() {
        let (_dir, db) = fresh();
        create(&db, "a", "u8", 1, None).unwrap();
        drop_object(&db, "a").unwrap();
        assert!(drop_object(&db, "a").is_err());
        assert!(create(&db, "bad", "u128", 1, None).is_err());
        assert!(load(&db, "missing", "[0:1]", "zero").is_err());
        assert!(query(&db, "SELECT nope FROM nope").is_err());
    }

    #[test]
    fn stats_command_reports_io_and_metrics() {
        let (_dir, db) = fresh();
        create(&db, "m", "u8", 2, Some("regular:4")).unwrap();
        load(&db, "m", "[0:31,0:31]", "checker").unwrap();
        // The second run of the same query is served from the buffer pool.
        for _ in 0..2 {
            query(&db, "SELECT m[0:7,0:7] FROM m").unwrap();
        }
        let out = stats(&db).unwrap();
        assert!(out.contains("m: "), "{out}");
        assert!(out.contains("session I/O:"), "{out}");
        assert!(out.contains("access log: "), "{out}");
        assert!(out.contains("engine.query_latency_ns"), "{out}");
        assert!(out.contains("cache:"), "{out}");
        assert!(!out.contains("cache: 0 hits"), "{out}");
    }

    #[test]
    fn trace_command_emits_jsonl_spans() {
        let (_dir, db) = fresh();
        create(&db, "t", "u8", 2, Some("regular:4")).unwrap();
        load(&db, "t", "[0:15,0:15]", "gradient").unwrap();
        let out = trace(&db, "SELECT t[0:3,0:3] FROM t").unwrap();
        // The query span and at least one blob read must be present
        // (other tests may interleave extra global events; only containment
        // is asserted).
        assert!(out.contains("\"name\":\"query\""), "{out}");
        assert!(out.contains("span_start"), "{out}");
        assert!(out.contains("span_end"), "{out}");
        assert!(out.contains("blob_read"), "{out}");
        assert!(out.contains("tiles,"), "{out}");
        assert!(trace(&db, "SELECT nope FROM nope").is_err());
    }

    #[test]
    fn retile_from_log_command() {
        let (_dir, db) = fresh();
        create(&db, "m", "u32", 2, Some("regular:16")).unwrap();
        load(&db, "m", "[0:63,0:63]", "gradient").unwrap();
        for _ in 0..4 {
            query(&db, "SELECT m[0:7,0:7] FROM m").unwrap();
        }
        let msg = retile(&db, "m", "--from-log:0:2:64").unwrap();
        assert!(msg.contains("from access log"), "{msg}");
        // Defaults apply when thresholds are omitted.
        query(&db, "SELECT m[8:15,8:15] FROM m").unwrap();
        let msg = retile(&db, "m", "--from-log").unwrap();
        assert!(msg.contains("tiles"), "{msg}");
        assert!(retile(&db, "m", "--from-log:x").is_err());
    }

    #[test]
    fn fsck_reports_clean_and_dirty_directories() {
        let (dir, db) = fresh();
        create(&db, "m", "u8", 2, Some("regular:4")).unwrap();
        load(&db, "m", "[0:15,0:15]", "gradient").unwrap();
        db.save(dir.path()).unwrap();
        let out = fsck(dir.path()).unwrap();
        assert!(out.contains("clean"), "{out}");
        // A leftover staging file from an interrupted commit is flagged.
        std::fs::write(
            dir.path().join(tilestore_engine::CATALOG_TMP_FILE),
            b"{garbage",
        )
        .unwrap();
        let msg = fsck(dir.path()).unwrap_err();
        assert!(msg.contains("catalog.json.tmp"), "{msg}");
        assert!(fsck(&dir.path().join("nope")).is_err());
    }

    #[test]
    fn client_command_round_trip() {
        let (dir, db) = fresh();
        create(&db, "img", "u8", 2, Some("regular:4")).unwrap();
        load(&db, "img", "[0:15,0:15]", "gradient").unwrap();
        db.save(dir.path()).unwrap();
        let handle = tilestore_server::serve(
            tilestore_engine::SharedDatabase::new(db),
            Some(dir.path().to_path_buf()),
            "127.0.0.1:0",
            tilestore_server::ServerConfig::default(),
        )
        .unwrap();
        let addr = handle.addr().to_string();
        assert_eq!(client(&addr, "ping", &[]).unwrap(), "pong");
        let out = client(
            &addr,
            "query",
            &["SELECT count_cells(img) FROM img".to_string()],
        )
        .unwrap();
        assert!(out.contains("cells"), "{out}");
        let out = client(
            &addr,
            "load",
            &["img".into(), "[16:31,0:15]".into(), "gradient".into()],
        )
        .unwrap();
        assert!(out.contains("loaded [16:31,0:15]"), "{out}");
        let out = client(&addr, "retile", &["img".into(), "regular:8".into()]).unwrap();
        assert!(out.contains("tiles"), "{out}");
        let out = client(&addr, "info", &["img".into()]).unwrap();
        assert!(out.contains("covered_cells"), "{out}");
        let out = client(&addr, "stats", &[]).unwrap();
        assert!(out.contains("objects"), "{out}");
        let out = client(&addr, "fsck", &[]).unwrap();
        assert!(out.contains("clean"), "{out}");
        let out = client(
            &addr,
            "explain",
            &["SELECT count_cells(img) FROM img WHERE img > 250".to_string()],
        )
        .unwrap();
        assert!(out.contains("plan"), "{out}");
        assert!(out.contains("[request "), "{out}");
        let out = client(
            &addr,
            "explain",
            &[
                "SELECT count_cells(img) FROM img".to_string(),
                "--analyze".to_string(),
            ],
        )
        .unwrap();
        assert!(out.contains("analyze"), "{out}");
        let out = client(&addr, "metrics", &[]).unwrap();
        assert!(out.contains("engine.queries"), "{out}");
        let out = client(&addr, "health", &[]).unwrap();
        assert!(out.contains("\"ok\""), "{out}");
        let out = client(&addr, "top", &["4".to_string()]).unwrap();
        assert!(out.contains("slow queries"), "{out}");
        assert!(client(&addr, "bogus", &[]).is_err());
        client(&addr, "shutdown", &[]).unwrap();
        handle.join();
        assert!(tilestore_engine::fsck(dir.path()).unwrap().is_clean());
    }

    #[test]
    fn synthesize_patterns() {
        let dom: Domain = "[0:9]".parse().unwrap();
        assert!(synthesize(&dom, 2, "zero")
            .unwrap()
            .bytes()
            .iter()
            .all(|&b| b == 0));
        let g = synthesize(&dom, 2, "gradient").unwrap();
        assert_ne!(g.bytes()[0], g.bytes()[2]);
        let r1 = synthesize(&dom, 1, "random:9").unwrap();
        let r2 = synthesize(&dom, 1, "random:9").unwrap();
        assert_eq!(r1, r2);
        assert!(synthesize(&dom, 1, "perlin").is_err());
    }
}
