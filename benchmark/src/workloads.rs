//! Datasets on disk, the fixtures that serve them, and the timed rounds.
//!
//! Load model: closed loop, one caller thread, one connection. Servers and
//! the coordinator run in-process with their default configs; engine
//! handles come from `Database::open_dir` (default pool, no executor).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tilestore_cluster::{
    serve_cluster, ClusterConfig, ClusterHandle, ClusterManifest, Coordinator, ShardBackend,
    ShardMap,
};
use tilestore_compress::CompressionPolicy;
use tilestore_engine::{fsck, Array, CachedFileStore, CellType, Database, MddType, SharedDatabase};
use tilestore_exec::ThreadPool;
use tilestore_geometry::{DefDomain, Domain};
use tilestore_rasql::Value;
use tilestore_server::{serve, Client, RemoteValue, ServerConfig, ServerHandle};
use tilestore_storage::IoSnapshot;
use tilestore_tiling::{AlignedTiling, Scheme};

use crate::gen::{self, Check, ReadOp, Route, Spec};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;
pub type Db = Database<CachedFileStore>;

pub fn scheme(tile_bytes: u64) -> Scheme {
    Scheme::Aligned(AlignedTiling::regular(2, tile_bytes))
}

/// Creates `spec`'s (empty) object in `db`.
pub fn create_object(db: &Db, spec: &Spec) -> Res<()> {
    let mdd = MddType::new(CellType::of::<u32>(), DefDomain::unlimited(2)?);
    db.create_object(spec.object, mdd, scheme(spec.tile_bytes))?;
    if spec.compress {
        db.set_compression(spec.object, CompressionPolicy::selective_default())?;
    }
    Ok(())
}

/// Builds and commits `spec`'s dataset as a single-engine directory.
pub fn build_engine_dir(spec: &Spec, seed: u64, dir: &Path) -> Res<()> {
    let db = Database::create_dir(dir)?;
    create_object(&db, spec)?;
    for i in 0..spec.slabs() {
        db.insert(spec.object, &gen::slab(spec, seed, i))?;
    }
    db.save(dir)?;
    Ok(())
}

/// Builds and commits `spec`'s dataset as a 2-shard local cluster root,
/// cut at the middle row.
pub fn build_cluster_dir(spec: &Spec, seed: u64, root: &Path) -> Res<()> {
    let map = ShardMap::even(0, 2, 0, spec.rows as u64 / 2)?;
    let mut backends = Vec::new();
    for k in 0..map.shards() {
        let db = Database::create_dir(ClusterManifest::shard_dir(root, k))?;
        create_object(&db, spec)?;
        backends.push(ShardBackend::Local(SharedDatabase::new(db)));
    }
    let coord = Coordinator::new(map.clone(), backends, Arc::new(ThreadPool::new(2)))?;
    for i in 0..spec.slabs() {
        coord.insert(spec.object, &gen::slab(spec, seed, i))?;
    }
    coord.save_local(root)?;
    ClusterManifest { map }.save(root)?;
    Ok(())
}

/// Opens a cluster root the way the CLI does: manifest, both shards,
/// `Coordinator::new` over a 2-worker pool.
pub fn open_cluster(root: &Path) -> Res<Coordinator<CachedFileStore>> {
    let manifest = ClusterManifest::load(root)?;
    let mut backends = Vec::new();
    for k in 0..manifest.map.shards() {
        let db = Database::open_dir(ClusterManifest::shard_dir(root, k))?;
        backends.push(ShardBackend::Local(SharedDatabase::new(db)));
    }
    Ok(Coordinator::new(
        manifest.map,
        backends,
        Arc::new(ThreadPool::new(2)),
    )?)
}

/// Builds the dataset the way `spec.route` stores it.
pub fn build_dataset(spec: &Spec, seed: u64, dir: &Path) -> Res<()> {
    match spec.route {
        Route::Cluster => build_cluster_dir(spec, seed, dir),
        _ => build_engine_dir(spec, seed, dir),
    }
}

/// Times one cold-handle open of a committed directory, in milliseconds:
/// catalog parse + page cross-check + index rebuild = time to first query
/// after a restart.
pub fn time_reopen(route: Route, dir: &Path) -> Res<f64> {
    let t0 = Instant::now();
    match route {
        Route::Cluster => drop(open_cluster(dir)?),
        _ => drop(Database::open_dir(dir)?),
    }
    Ok(t0.elapsed().as_secs_f64() * 1e3)
}

/// Bytes on disk under `dir`, recursively (page files, catalogs, access
/// logs, manifest).
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Connects and waits for the first reply: the accept loop polls, so the
/// session only exists once a request has been answered.
fn connect(addr: std::net::SocketAddr) -> Res<Client> {
    let mut client = Client::connect(addr)?;
    client.ping()?;
    Ok(client)
}

/// A read result, wherever it was produced.
pub enum ReadOut {
    Local(Array),
    Remote { region: Domain, cells: Vec<u8> },
}

impl ReadOut {
    pub fn region(&self) -> &Domain {
        match self {
            ReadOut::Local(a) => a.domain(),
            ReadOut::Remote { region, .. } => region,
        }
    }

    pub fn bytes(&self) -> &[u8] {
        match self {
            ReadOut::Local(a) => a.bytes(),
            ReadOut::Remote { cells, .. } => cells,
        }
    }
}

/// Whatever answers a read workload's statements.
pub enum Fixture {
    Engine {
        db: SharedDatabase<CachedFileStore>,
    },
    Served {
        server: ServerHandle,
        client: Client,
        db: SharedDatabase<CachedFileStore>,
    },
    Cluster {
        server: ClusterHandle,
        client: Client,
        coord: Arc<Coordinator<CachedFileStore>>,
    },
}

impl Fixture {
    /// Opens the committed dataset in `dir` behind `route`'s front door.
    pub fn open(route: Route, dir: &Path) -> Res<Fixture> {
        match route {
            Route::Engine | Route::Ingest => Ok(Fixture::Engine {
                db: SharedDatabase::new(Database::open_dir(dir)?),
            }),
            Route::Served => {
                let db = SharedDatabase::new(Database::open_dir(dir)?);
                let server = serve(
                    db.clone(),
                    Some(dir.to_path_buf()),
                    "127.0.0.1:0",
                    ServerConfig::default(),
                )?;
                let client = connect(server.addr())?;
                Ok(Fixture::Served { server, client, db })
            }
            Route::Cluster => {
                let coord = Arc::new(open_cluster(dir)?);
                let server = serve_cluster(
                    Arc::clone(&coord),
                    Some(dir.to_path_buf()),
                    "127.0.0.1:0",
                    ClusterConfig::default(),
                )?;
                let client = connect(server.addr())?;
                Ok(Fixture::Cluster {
                    server,
                    client,
                    coord,
                })
            }
        }
    }

    /// One read op, end to end. Errors, `busy` and deadline refusals all
    /// come back as `Err`: the caller counts them as failed ops.
    pub fn read(&mut self, stmt: &str) -> Result<ReadOut, String> {
        match self {
            Fixture::Engine { db } => match tilestore_rasql::execute(&db.begin_read(), stmt) {
                Ok((Value::Array(a), _)) => Ok(ReadOut::Local(a)),
                Ok(_) => Err("statement did not return an array".to_string()),
                Err(e) => Err(e.to_string()),
            },
            Fixture::Served { client, .. } | Fixture::Cluster { client, .. } => {
                match client.query(stmt) {
                    Ok(RemoteValue::Array { domain, cells, .. }) => Ok(ReadOut::Remote {
                        region: domain,
                        cells,
                    }),
                    Ok(_) => Err("statement did not return an array".to_string()),
                    Err(e) => Err(e.to_string()),
                }
            }
        }
    }

    /// A shared reference to the single engine behind this fixture.
    pub fn shared_db(&self) -> Option<SharedDatabase<CachedFileStore>> {
        match self {
            Fixture::Engine { db } | Fixture::Served { db, .. } => Some(db.clone()),
            Fixture::Cluster { .. } => None,
        }
    }

    pub fn coordinator(&self) -> Option<Arc<Coordinator<CachedFileStore>>> {
        match self {
            Fixture::Cluster { coord, .. } => Some(Arc::clone(coord)),
            _ => None,
        }
    }

    pub fn client(&mut self) -> Option<&mut Client> {
        match self {
            Fixture::Served { client, .. } | Fixture::Cluster { client, .. } => Some(client),
            Fixture::Engine { .. } => None,
        }
    }

    /// The engine handles behind this fixture (one, or one per shard).
    pub fn dbs(&self) -> Vec<&Db> {
        match self {
            Fixture::Engine { db } | Fixture::Served { db, .. } => vec![db],
            Fixture::Cluster { coord, .. } => coord
                .backends()
                .iter()
                .filter_map(|b| match b {
                    ShardBackend::Local(db) => Some(&**db),
                    ShardBackend::Remote(_) => None,
                })
                .collect(),
        }
    }

    /// I/O counters summed over the fixture's engines.
    pub fn io(&self) -> IoSnapshot {
        self.dbs()
            .iter()
            .fold(IoSnapshot::default(), |acc, db| add_io(&acc, &db_io(db)))
    }

    /// Read snapshots still alive across the fixture's engines; anything
    /// but 0 between ops is a leaked pin.
    pub fn live_snapshots(&self) -> u64 {
        self.dbs().iter().map(|db| db.live_snapshots()).sum()
    }

    /// Stops the server, if any, and waits for its threads.
    pub fn close(self) {
        match self {
            Fixture::Engine { .. } => {}
            Fixture::Served { server, client, .. } => {
                drop(client);
                server.shutdown();
            }
            Fixture::Cluster { server, client, .. } => {
                drop(client);
                server.shutdown();
            }
        }
    }
}

/// One engine's counters: the BLOB layer's reads and writes plus the
/// buffer pool's hits and misses (kept on two `IoStats` by the program).
pub fn db_io(db: &Db) -> IoSnapshot {
    let pool = db.blob_store().page_store().stats().snapshot();
    IoSnapshot {
        cache_hits: pool.cache_hits,
        cache_misses: pool.cache_misses,
        ..db.io_stats().snapshot()
    }
}

pub fn add_io(a: &IoSnapshot, b: &IoSnapshot) -> IoSnapshot {
    IoSnapshot {
        pages_read: a.pages_read + b.pages_read,
        pages_written: a.pages_written + b.pages_written,
        blobs_read: a.blobs_read + b.blobs_read,
        blobs_written: a.blobs_written + b.blobs_written,
        bytes_read: a.bytes_read + b.bytes_read,
        bytes_written: a.bytes_written + b.bytes_written,
        cache_hits: a.cache_hits + b.cache_hits,
        cache_misses: a.cache_misses + b.cache_misses,
        runs_coalesced: a.runs_coalesced + b.runs_coalesced,
        pages_read_run: a.pages_read_run + b.pages_read_run,
        readahead_bytes: a.readahead_bytes + b.readahead_bytes,
    }
}

/// What one round of ops measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Per-op latency, microseconds, in op order.
    pub lat_us: Vec<f64>,
    /// Wall-clock of the op loop (checks of a timed round included: they
    /// are two cell compares).
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// CPU time (user + system) the process spent during the op loop.
    pub cpu_us: f64,
}

/// CPU time of this process so far (user + system), in microseconds.
pub fn cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, in clock ticks of 10 ms.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<f64>().ok())
        .sum();
    ticks * 10_000.0
}

/// Runs `ops` once through `fx`, timing each call and checking each
/// result against the generator.
pub fn read_round(fx: &mut Fixture, spec: &Spec, seed: u64, ops: &[ReadOp], check: Check) -> Round {
    let mut round = Round {
        lat_us: Vec::with_capacity(ops.len()),
        attempted: ops.len() as u64,
        ..Round::default()
    };
    let cpu_before = cpu_us();
    let start = Instant::now();
    for op in ops {
        let t0 = Instant::now();
        let out = fx.read(&op.stmt);
        round.lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let ok = out.is_ok_and(|o| {
            o.region() == &op.region && gen::verify(spec, seed, &op.region, o.bytes(), check)
        });
        round.failed += u64::from(!ok);
    }
    round.wall_s = start.elapsed().as_secs_f64();
    round.cpu_us = cpu_us() - cpu_before;
    round.failed += fx.live_snapshots();
    round
}

/// An ingest round: its timings plus what it wrote.
pub struct IngestRound {
    pub round: Round,
    /// Bytes written to the directory: page frames + every catalog rewrite.
    pub dir_bytes_written: u64,
    /// Size of the last committed `catalog.json`.
    pub catalog_bytes: u64,
}

/// One `ingest_commit` round into the fresh directory `dir`: every op is
/// `insert` of one slab + `save`. Afterwards one more slab is inserted
/// and left uncommitted, the handle is dropped, and the directory is
/// reopened: every acknowledged slab must read back cell-exact, the
/// unacknowledged one must be absent, and after the recovery commit `fsck`
/// must be clean. Each violation is a failed op.
pub fn ingest_round(spec: &Spec, seed: u64, dir: &Path, ops: usize) -> Res<IngestRound> {
    let db = Database::create_dir(dir)?;
    create_object(&db, spec)?;
    let catalog = dir.join(tilestore_engine::CATALOG_FILE);
    let frame = db.blob_store().page_store().inner_store().frame_size();
    let mut round = Round {
        lat_us: Vec::with_capacity(ops),
        attempted: ops as u64,
        ..Round::default()
    };
    let (mut catalog_written, mut catalog_bytes) = (0u64, 0u64);
    let cpu_before = cpu_us();
    for i in 0..ops {
        let slab = gen::slab(spec, seed, i);
        let t0 = Instant::now();
        let ok = db.insert(spec.object, &slab).is_ok() && db.save(dir).is_ok();
        let dt = t0.elapsed().as_secs_f64();
        round.lat_us.push(dt * 1e6);
        round.wall_s += dt;
        round.failed += u64::from(!ok);
        catalog_bytes = std::fs::metadata(&catalog)?.len();
        catalog_written += catalog_bytes;
    }
    round.cpu_us = cpu_us() - cpu_before;
    let dir_bytes_written = db.io_stats().snapshot().pages_written * frame + catalog_written;
    round.failed += u64::from(db.insert(spec.object, &gen::slab(spec, seed, ops)).is_err());
    round.failed += db.live_snapshots();
    drop(db);

    let db = Database::open_dir(dir)?;
    round.failed += u64::from(db.catalog_epoch() != ops as u64);
    let last_row = ops as i64 * spec.slab_rows - 1;
    let domain = db.object(spec.object)?.current_domain.clone();
    round.failed += u64::from(domain.is_none_or(|d| d.hi(0) != last_row));
    for i in 0..ops {
        let region = gen::slab_region(spec, i);
        let ok = db
            .range_query(spec.object, &region)
            .is_ok_and(|q| gen::verify(spec, seed, &region, q.array.bytes(), Check::Full));
        round.failed += u64::from(!ok);
    }
    db.save(dir)?;
    round.failed += u64::from(!fsck(dir)?.is_clean());
    Ok(IngestRound {
        round,
        dir_bytes_written,
        catalog_bytes,
    })
}
