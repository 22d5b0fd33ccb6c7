//! The traced run: every layer measured **from outside**, by timing calls
//! into its public functions. Nothing inside the program is instrumented.
//!
//! A traced run happens after the timed rounds, never during them. It has
//! four sections — engine, served, cluster, ingest — each over the
//! workload's own dataset. The section that matches the workload's route
//! is the *traced round*: the whole op list, every 8th op wrapped in a
//! root span `op.<route>` and followed by a `replay.<route>` span under
//! which the same kind of op is performed stage by stage. The other three
//! sections run a few dozen ops each, so that every per-layer metric is
//! measured on every workload. Each stage name is recorded by exactly one
//! section, so a metric is the median of all spans of its name.
//!
//! The replay performs a *sibling* op — the one half a round away in the
//! same list — not the op just executed: the real call has just pulled
//! that op's pages into the buffer pool, and replaying it would time a
//! warm pool where the real op met a cold one.

use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tilestore_cluster::Coordinator;
use tilestore_compress::{compress_with_scan, decompress, CellContext};
use tilestore_engine::{Array, CachedFileStore, Database, TileSynopsis};
use tilestore_exec::ThreadPool;
use tilestore_geometry::Domain;
use tilestore_index::{RPlusTree, DEFAULT_FANOUT};
use tilestore_rasql::Value;
use tilestore_server::wire::{
    hex_decode, hex_encode, ok_response, read_frame, value_to_json, with_request_id, write_frame,
};
use tilestore_storage::{CostModel, PageStore};
use tilestore_testkit::{crc32, tempdir, Json};
use tilestore_tiling::TilingStrategy;

use crate::estimate::{median, percentile, Better};
use crate::gen::{self, Check, ReadOp, Route, Spec, CELL};
use crate::report::{Metric, Report};
use crate::trace::Recorder;
use crate::workloads::{
    build_cluster_dir, build_engine_dir, create_object, db_io, read_round, scheme, Db, Fixture,
    Res, Round,
};

/// In the traced round every this-many-th op is traced and replayed.
const SAMPLE_EVERY: usize = 8;

/// Every per-layer metric a traced run reports, with unit and direction.
/// `BENCHMARK.json` lists exactly these (a test holds the two together).
pub const LAYER_METRICS: &[(&str, &str, Better)] = &[
    ("geometry.domain_ops_us", "us", Better::Lower),
    ("tiling.partition_us", "us", Better::Lower),
    ("tiling.tiles_per_insert", "count", Better::Lower),
    ("index.search_us", "us", Better::Lower),
    ("index.nodes_per_op", "count", Better::Lower),
    ("index.hits_per_op", "count", Better::Lower),
    ("index.bulk_load_ms", "ms", Better::Lower),
    ("storage.blob_read_us", "us", Better::Lower),
    ("storage.pages_read_per_op", "count", Better::Lower),
    ("storage.cache_hit_ratio", "ratio", Better::Higher),
    ("storage.runs_per_op", "count", Better::Lower),
    ("storage.readahead_bytes_per_op", "B", Better::Higher),
    ("storage.crc_mib_s", "MiB/s", Better::Higher),
    ("storage.model_t_o_ms", "ms", Better::Lower),
    ("storage.blob_write_us", "us", Better::Lower),
    ("storage.pages_written_per_op", "count", Better::Lower),
    ("storage.sync_us", "us", Better::Lower),
    ("compress.decompress_us", "us", Better::Lower),
    ("compress.decompress_mib_s", "MiB/s", Better::Higher),
    ("compress.compress_us", "us", Better::Lower),
    ("compress.ratio", "ratio", Better::Higher),
    ("engine.begin_read_us", "us", Better::Lower),
    ("engine.range_query_us", "us", Better::Lower),
    ("engine.assemble_us", "us", Better::Lower),
    ("engine.cells_wasted_ratio", "ratio", Better::Lower),
    ("engine.insert_us", "us", Better::Lower),
    ("engine.commit_us", "us", Better::Lower),
    ("engine.catalog_bytes", "B", Better::Lower),
    ("engine.retile_s", "s", Better::Lower),
    ("engine.defrag_s", "s", Better::Lower),
    ("rasql.parse_us", "us", Better::Lower),
    ("rasql.execute_self_us", "us", Better::Lower),
    ("exec.scatter_overhead_us", "us", Better::Lower),
    ("exec.parallel_over_serial", "ratio", Better::Lower),
    ("obs.tracer_on_over_off", "ratio", Better::Lower),
    ("server.ping_rtt_us", "us", Better::Lower),
    ("server.request_encode_us", "us", Better::Lower),
    ("server.request_decode_us", "us", Better::Lower),
    ("server.result_encode_us", "us", Better::Lower),
    ("server.result_decode_us", "us", Better::Lower),
    ("server.hex_mib_s", "MiB/s", Better::Higher),
    ("server.frame_bytes_per_op", "B", Better::Lower),
    ("server.wire_amp", "ratio", Better::Lower),
    ("server.transport_residual_us", "us", Better::Lower),
    ("server.op_p99_us", "us", Better::Lower),
    ("cluster.route_us", "us", Better::Lower),
    ("cluster.coordinator_query_us", "us", Better::Lower),
    ("cluster.scatter_gather_overhead_us", "us", Better::Lower),
    ("cluster.shards_per_op", "count", Better::Lower),
    ("cluster.straddle_ratio", "ratio", Better::Lower),
    ("testkit.json_parse_mib_s", "MiB/s", Better::Higher),
    ("testkit.json_write_mib_s", "MiB/s", Better::Higher),
    ("proc.cpu_us_per_op", "us", Better::Lower),
    ("trace.replay_coverage", "ratio", Better::Higher),
    ("trace.overhead_ratio", "ratio", Better::Higher),
];

/// Replay stages on each route's path; their medians, summed and divided
/// by the real op's median, are `trace.replay_coverage`.
const ENGINE_STAGES: &[&str] = &[
    "rasql.parse",
    "engine.begin_read",
    "index.search",
    "geometry.domain_ops",
    "storage.blob_read",
    "compress.decompress",
    "engine.paste",
];
const CODEC_STAGES: &[&str] = &[
    "server.request_encode",
    "server.request_decode",
    "server.result_encode",
    "server.result_decode",
];
const CLUSTER_STAGES: &[&str] = &["cluster.route"];
const INGEST_STAGES: &[&str] = &[
    "tiling.partition",
    "engine.extract",
    "compress.compress",
    "storage.blob_write",
    "storage.sync",
    "engine.catalog_export",
    "testkit.json_write",
    "fs.commit_file",
];

fn root_span(route: Route) -> &'static str {
    match route {
        Route::Engine => "op.engine",
        Route::Served => "op.served",
        Route::Cluster => "op.cluster",
        Route::Ingest => "op.ingest",
    }
}

fn replay_span(route: Route) -> &'static str {
    match route {
        Route::Engine => "replay.engine",
        Route::Served => "replay.served",
        Route::Cluster => "replay.cluster",
        Route::Ingest => "replay.ingest",
    }
}

/// Ops in each section that is not the traced round.
fn aux_ops(spec: &Spec) -> usize {
    (spec.ops_per_round / SAMPLE_EVERY).clamp(8, 64)
}

fn cell_ctx(default: &[u8]) -> CellContext<'_> {
    CellContext {
        cell_size: CELL,
        default,
    }
}

/// The op a replay of op `i` performs: `quarters` quarter-rounds away.
fn sibling(ops: &[ReadOp], i: usize, quarters: usize) -> &ReadOp {
    &ops[(i + quarters * ops.len() / 4) % ops.len()]
}

/// State shared by the sections of one traced run.
struct Tracer<'a> {
    rec: Recorder,
    spec: &'a Spec,
    seed: u64,
    ops: &'a [ReadOp],
    /// Replays and probes that returned an error or a wrong cell.
    failed: u64,
    attempted: u64,
    /// One real response document, kept for the JSON probes.
    response_doc: String,
    /// The traced round itself (the section on the workload's own route).
    traced_round: Option<Round>,
}

impl<'a> Tracer<'a> {
    fn new(spec: &'a Spec, seed: u64, ops: &'a [ReadOp]) -> Self {
        Tracer {
            rec: Recorder::new(),
            spec,
            seed,
            ops,
            failed: 0,
            attempted: 0,
            response_doc: String::new(),
            traced_round: None,
        }
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Runs `ops[..n]` through `fx`; every `every`-th op is recorded as a
    /// root span and followed by `replay` under a replay span.
    fn traced_ops(
        &mut self,
        fx: &mut Fixture,
        route: Route,
        n: usize,
        every: usize,
        mut replay: impl FnMut(&mut Self, usize) -> Res<()>,
    ) -> Round {
        let mut round = Round {
            attempted: n as u64,
            ..Round::default()
        };
        let check = if every == 1 {
            Check::Full
        } else {
            Check::Edges
        };
        for i in 0..n {
            let op = &self.ops[i];
            let sampled = i % every == 0;
            let t0 = Instant::now();
            if sampled {
                self.rec.set_op(i as u32);
                self.rec.enter(root_span(route));
            }
            let out = fx.read(&op.stmt);
            if sampled {
                self.rec.exit();
            }
            let dt = t0.elapsed().as_secs_f64();
            round.lat_us.push(dt * 1e6);
            round.wall_s += dt;
            let ok = out.is_ok_and(|o| {
                o.region() == &op.region
                    && gen::verify(self.spec, self.seed, &op.region, o.bytes(), check)
            });
            round.failed += u64::from(!ok);
            if sampled {
                self.rec.enter(replay_span(route));
                let replayed = replay(self, i);
                self.rec.exit();
                self.check(replayed.is_ok());
            }
        }
        round.failed += fx.live_snapshots();
        round
    }

    /// The engine's read path, stage by stage and tile by tile as the
    /// serial executor walks it, on the sibling of op `i`; then one real
    /// `rasql::execute` and one real `range_query`, each on another
    /// sibling. Counts go on the enclosing `replay.engine` span.
    fn replay_engine(&mut self, db: &Db, i: usize) -> Res<()> {
        let op = sibling(self.ops, i, 2);
        let rec = &mut self.rec;
        let replay = rec.innermost().expect("replays run under a replay span");
        let parsed = rec.leaf("rasql.parse", || tilestore_rasql::parse(&op.stmt));
        black_box(parsed?);
        let snap = rec.leaf("engine.begin_read", || db.begin_read());
        let meta = snap.object(self.spec.object)?;
        let found = rec.leaf("index.search", || meta.index.search(&op.region));

        let region_text = op.region.to_string();
        rec.leaf("geometry.domain_ops", || {
            let region: Domain = region_text.parse().expect("a printed domain parses");
            for &pos in &found.hits {
                black_box(meta.tiles[pos as usize].domain.intersection(&region));
            }
        });

        let ctx = cell_ctx(&meta.mdd_type.cell.default);
        let io_before = db_io(db);
        let result = rec.leaf("engine.paste", || {
            Array::filled(op.region.clone(), ctx.default)
        });
        let mut result = result?;
        let (mut raw_bytes, mut processed, mut copied) = (0, 0, 0);
        for &pos in &found.hits {
            let tile = &meta.tiles[pos as usize];
            let stream = rec.leaf("storage.blob_read", || db.blob_store().read(tile.blob));
            let stream = stream?;
            let payload = rec.leaf("compress.decompress", || decompress(&stream, &ctx));
            let payload = payload?;
            raw_bytes += payload.len() as u64;
            processed += tile.domain.cells();
            copied += rec.leaf("engine.paste", || {
                result.paste(&Array::from_bytes(tile.domain.clone(), CELL, payload)?)
            })?;
        }
        let io = db_io(db).since(&io_before);
        let model_ns = CostModel::classic_disk().t_o_coalesced(&io) * 1e9;
        for (key, value) in [
            ("index_nodes", found.nodes_visited),
            ("index_hits", found.hits.len() as u64),
            ("pages_read", io.pages_read),
            ("cache_hits", io.cache_hits),
            ("cache_misses", io.cache_misses),
            (
                "positioned_reads",
                io.pages_read - io.pages_read_run + io.runs_coalesced,
            ),
            ("readahead_bytes", io.readahead_bytes),
            ("model_t_o_ns", model_ns as u64),
            ("raw_bytes", raw_bytes),
            ("cells_processed", processed),
            ("cells_copied", copied),
        ] {
            rec.count(replay, key, value);
        }
        // Two real calls on further siblings, timed before anything is
        // verified so that the checks do not evict what they would read.
        let (via_rasql, direct) = (sibling(self.ops, i, 1), sibling(self.ops, i, 3));
        let executed = rec.leaf("rasql.execute", || {
            tilestore_rasql::execute(&snap, &via_rasql.stmt)
        });
        let queried = rec.leaf("engine.range_query", || {
            snap.range_query(self.spec.object, &direct.region)
        });
        let executed = match executed?.0 {
            Value::Array(a) => a,
            _ => return Err("statement did not return an array".into()),
        };
        let queried = queried?.array;
        let checks = [(op, &result), (via_rasql, &executed), (direct, &queried)];
        for (op, array) in checks {
            if !gen::verify(self.spec, self.seed, &op.region, array.bytes(), Check::Full) {
                return Err(format!("replay of {} produced wrong cells", op.stmt).into());
            }
        }
        Ok(())
    }

    /// The four wire codec stages around one real result, as `Client` and
    /// the connection loop perform them, into and out of in-memory frames.
    fn replay_codec(&mut self, db: &Db, i: usize) -> Res<()> {
        let op = sibling(self.ops, i, 2);
        let rec = &mut self.rec;
        let replay = rec.innermost().expect("replays run under a replay span");
        // A real call, not a stage: what the server's worker executes, on
        // the served handle (executor attached).
        let snap = db.begin_read();
        let executed = rec.leaf("server.execute", || {
            tilestore_rasql::execute(&snap, &op.stmt)
        });
        let (value, mut stats) = executed?;
        // The one field of a response that differs between two executions;
        // pinned so that frame sizes repeat exactly.
        stats.elapsed_ns = 0;

        let mut request = Vec::new();
        rec.leaf("server.request_encode", || {
            let doc = Json::obj(vec![
                ("id", Json::UInt(i as u64)),
                ("op", Json::Str("query".to_string())),
                ("q", Json::Str(op.stmt.clone())),
            ]);
            write_frame(&mut request, doc.to_string_compact().as_bytes())
        })?;
        let decoded = rec.leaf("server.request_decode", || {
            let frame = read_frame(&mut Cursor::new(&request)).ok().flatten()?;
            Json::parse(std::str::from_utf8(&frame).ok()?).ok()
        });
        black_box(decoded.ok_or("request frame did not decode")?);

        let mut response = Vec::new();
        rec.enter("server.result_encode");
        let doc = with_request_id(
            ok_response(i as u64, value_to_json(&value, &stats, snap.epoch())),
            i as u64,
        )
        .to_string_compact();
        let wrote = write_frame(&mut response, doc.as_bytes());
        rec.exit();
        wrote?;
        let cells = rec.leaf("server.result_decode", || {
            let frame = read_frame(&mut Cursor::new(&response)).ok().flatten()?;
            let doc = Json::parse(std::str::from_utf8(&frame).ok()?).ok()?;
            let result = doc.get("result").cloned()?;
            hex_decode(result.get("value")?.get("cells_hex")?.as_str()?).ok()
        });
        rec.count(
            replay,
            "frame_bytes",
            (request.len() + response.len()) as u64,
        );
        let Value::Array(array) = &value else {
            return Err("statement did not return an array".into());
        };
        rec.count(replay, "cell_bytes", array.bytes().len() as u64);
        if cells.as_deref() != Some(array.bytes()) {
            return Err("wire codec replay lost cells".into());
        }
        self.response_doc = doc;
        Ok(())
    }

    /// Routing of op `i`, then one real in-process `Coordinator::query`
    /// (no wire) on its sibling.
    fn replay_cluster(&mut self, coord: &Coordinator<CachedFileStore>, i: usize) -> Res<()> {
        let region = &self.ops[i].region;
        let replay = self
            .rec
            .innermost()
            .expect("replays run under a replay span");
        let shards = self.rec.leaf("cluster.route", || {
            let shards = coord.map().route(region);
            for &k in &shards {
                black_box(coord.map().clip(k, region));
            }
            shards
        });
        self.rec.count(replay, "shards", shards.len() as u64);

        let op = sibling(self.ops, i, 2);
        let query = tilestore_rasql::parse(&op.stmt)?;
        let got = self
            .rec
            .leaf("cluster.coordinator_query", || coord.query(&query));
        match got?.value {
            Value::Array(a)
                if gen::verify(self.spec, self.seed, &op.region, a.bytes(), Check::Full) =>
            {
                Ok(())
            }
            _ => Err("coordinator returned wrong cells".into()),
        }
    }

    /// The insert + commit path of one slab, stage by stage and tile by
    /// tile as `insert` walks it. BLOBs go to `scratch` (never committed
    /// there) so the real directory stays clean.
    fn replay_ingest(&mut self, db: &Db, scratch: &Db, dir: &Path, slab: &Array) -> Res<()> {
        let rec = &mut self.rec;
        let replay = rec.innermost().expect("replays run under a replay span");
        let scheme = scheme(self.spec.tile_bytes);
        let tiling = rec.leaf("tiling.partition", || scheme.partition(slab.domain(), CELL))?;

        let meta = db.object(self.spec.object)?;
        let ctx = cell_ctx(&meta.mdd_type.cell.default);
        let mut stream_bytes = 0;
        for domain in tiling.tiles() {
            let tile = rec.leaf("engine.extract", || slab.extract(domain))?;
            // As `insert` does: the encoder's scan doubles as the synopsis.
            let stream = rec.leaf("compress.compress", || {
                let (stream, scan) = compress_with_scan(&meta.compression, tile.bytes(), &ctx)?;
                black_box(TileSynopsis::from_scan(
                    &meta.mdd_type.cell,
                    tile.bytes(),
                    scan,
                ));
                Ok::<_, tilestore_compress::CompressError>(stream)
            })?;
            stream_bytes += stream.len() as u64;
            rec.leaf("storage.blob_write", || {
                scratch.blob_store().create(&stream)
            })?;
        }
        rec.count(replay, "tiles", tiling.len() as u64);
        rec.count(replay, "raw_bytes", slab.size_bytes());
        rec.count(replay, "stream_bytes", stream_bytes);
        rec.leaf("storage.sync", || scratch.blob_store().page_store().sync())?;

        let catalog = rec.leaf("engine.catalog_export", || db.catalog())?;
        let json = rec.leaf("testkit.json_write", || {
            tilestore_testkit::json::to_string(&catalog)
        });
        rec.leaf("fs.commit_file", || commit_file(dir, json.as_bytes()))?;
        Ok(())
    }

    /// `n` ops of insert + save into the fresh directory `dir`, every
    /// `every`-th recorded and replayed. Leaves `dir` committed.
    fn ingest_section(&mut self, dir: &Path, n: usize, every: usize) -> Res<Round> {
        let db = Database::create_dir(dir)?;
        create_object(&db, self.spec)?;
        let scratch_dir = tempdir()?;
        let scratch = Database::create_dir(scratch_dir.path().join("db"))?;
        let catalog = dir.join(tilestore_engine::CATALOG_FILE);
        let mut round = Round {
            attempted: n as u64,
            ..Round::default()
        };
        for i in 0..n {
            let slab = gen::slab(self.spec, self.seed, i);
            let sampled = i % every == 0;
            let io_before = db.io_stats().snapshot();
            let t0 = Instant::now();
            let ok = if sampled {
                self.rec.set_op(i as u32);
                let root = self.rec.enter("op.ingest");
                let inserted = self
                    .rec
                    .leaf("engine.insert", || db.insert(self.spec.object, &slab));
                let saved = self.rec.leaf("engine.commit", || db.save(dir));
                self.rec.exit();
                let written = db.io_stats().snapshot().since(&io_before).pages_written;
                self.rec.count(root, "pages_written", written);
                self.rec
                    .count(root, "catalog_bytes", std::fs::metadata(&catalog)?.len());
                inserted.is_ok() && saved.is_ok()
            } else {
                db.insert(self.spec.object, &slab).is_ok() && db.save(dir).is_ok()
            };
            let dt = t0.elapsed().as_secs_f64();
            round.lat_us.push(dt * 1e6);
            round.wall_s += dt;
            round.failed += u64::from(!ok);
            if sampled {
                self.rec.enter("replay.ingest");
                let replayed = self.replay_ingest(&db, &scratch, scratch_dir.path(), &slab);
                self.rec.exit();
                self.check(replayed.is_ok());
            }
        }
        round.failed += db.live_snapshots();
        Ok(round)
    }

    /// Median over ops of the time spent in spans called `span`, in
    /// microseconds (a stage that runs once per tile adds up within its op).
    fn med(&self, span: &str) -> f64 {
        let mut d = self.rec.per_op_us(span);
        assert!(!d.is_empty(), "no span named {span} was recorded");
        median(&mut d)
    }

    /// Sum and number of a count over the spans called `span`.
    fn count_sum(&self, span: &str, key: &str) -> (f64, f64) {
        let values = self
            .rec
            .spans()
            .iter()
            .filter(|s| s.name == span)
            .filter_map(|s| {
                s.counts
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|&(_, v)| v as f64)
            });
        values.fold((0.0, 0.0), |(sum, n), v| (sum + v, n + 1.0))
    }

    fn count_mean(&self, span: &str, key: &str) -> f64 {
        let (sum, n) = self.count_sum(span, key);
        sum / n.max(1.0)
    }
}

/// What `Database::save` does to the catalog file: write a tmp, fsync it,
/// rename it into place, fsync the directory.
fn commit_file(dir: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = dir.join("replay.json.tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(&tmp, dir.join("replay.json"))?;
    std::fs::File::open(dir)?.sync_all()
}

/// Times `f` repeatedly for about `budget_ms` and returns MiB/s over
/// `bytes` per call.
fn throughput_mib_s(bytes: usize, budget_ms: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || start.elapsed().as_millis() < u128::from(budget_ms) {
        f();
        calls += 1;
    }
    (calls as f64 * bytes as f64 / (1 << 20) as f64) / start.elapsed().as_secs_f64()
}

/// Median microseconds of `n` calls of `f`.
fn median_call_us(n: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut samples)
}

/// Median latency of `ops` as range queries on `db`, in microseconds;
/// every result is checked.
fn range_query_median_us(t: &mut Tracer, db: &Db, ops: &[ReadOp]) -> f64 {
    let mut lat = Vec::with_capacity(ops.len());
    for op in ops {
        let t0 = Instant::now();
        let got = db.range_query(t.spec.object, &op.region);
        lat.push(t0.elapsed().as_secs_f64() * 1e6);
        let ok = got
            .is_ok_and(|q| gen::verify(t.spec, t.seed, &op.region, q.array.bytes(), Check::Edges));
        t.check(ok);
    }
    median(&mut lat)
}

/// Numbers that come from fixed probes rather than from spans.
struct Probes {
    bulk_load_ms: f64,
    crc_mib_s: f64,
    hex_mib_s: f64,
    json_parse_mib_s: f64,
    json_write_mib_s: f64,
    scatter_us: f64,
    parallel_over_serial: f64,
    tracer_on_over_off: f64,
    ping_us: f64,
    retile_s: f64,
    defrag_s: f64,
}

/// The live fixture when the section is the workload's own, a freshly
/// opened one otherwise.
fn pick<'f>(
    live: &'f mut Option<&mut Fixture>,
    aux: &'f mut Option<Fixture>,
    is_live: bool,
    open: impl FnOnce() -> Res<Fixture>,
) -> Res<&'f mut Fixture> {
    if is_live {
        Ok(live
            .as_deref_mut()
            .expect("a read workload hands in its live fixture"))
    } else {
        Ok(aux.insert(open()?))
    }
}

impl Tracer<'_> {
    /// The read section on `route`. On the workload's own route it is the
    /// traced round: the whole list on the long-warm live fixture, one op in
    /// eight traced. Otherwise a few ops, all traced, after the freshly
    /// opened fixture has run them once checked cell for cell, as every
    /// workload's warm-up round does.
    fn read_section(
        &mut self,
        fx: &mut Fixture,
        route: Route,
        replay: impl FnMut(&mut Self, usize) -> Res<()>,
    ) {
        let (n, every) = if self.spec.route == route {
            (self.ops.len(), SAMPLE_EVERY)
        } else {
            let n = aux_ops(self.spec).min(self.ops.len());
            let warm = read_round(fx, self.spec, self.seed, &self.ops[..n], Check::Full);
            self.keep(route, warm);
            (n, 1)
        };
        let round = self.traced_ops(fx, route, n, every, replay);
        self.keep(route, round);
    }

    fn keep(&mut self, route: Route, round: Round) {
        if self.spec.route == route {
            self.traced_round = Some(round);
        } else {
            self.attempted += round.attempted;
            self.failed += round.failed;
        }
    }

    /// Runs the three read-side sections and the probes, derives every
    /// per-layer metric, and writes the trace. `engine_dir` holds the
    /// dataset as a committed single-engine directory.
    fn finish(
        mut self,
        mut live: Option<&mut Fixture>,
        engine_dir: &Path,
        report: &mut Report,
    ) -> Res<()> {
        let route = self.spec.route;

        let mut aux_engine = None;
        let fx = pick(&mut live, &mut aux_engine, route == Route::Engine, || {
            Fixture::open(Route::Engine, engine_dir)
        })?;
        let db = fx.shared_db().expect("an engine fixture has a handle");
        self.read_section(fx, Route::Engine, |t, i| t.replay_engine(&db, i));

        let mut aux_served = None;
        let fx = pick(&mut live, &mut aux_served, route == Route::Served, || {
            Fixture::open(Route::Served, engine_dir)
        })?;
        let served_db = fx.shared_db().expect("a served fixture has a handle");
        self.read_section(fx, Route::Served, |t, i| t.replay_codec(&served_db, i));
        let client = fx.client().expect("a served fixture has a client");
        let ping_us = median_call_us(200, || self.failed += u64::from(client.ping().is_err()));
        if let Some(fx) = aux_served {
            fx.close();
        }

        let cluster_dir = tempdir()?;
        let mut aux_cluster = None;
        let fx = pick(&mut live, &mut aux_cluster, route == Route::Cluster, || {
            build_cluster_dir(self.spec, self.seed, cluster_dir.path())?;
            Fixture::open(Route::Cluster, cluster_dir.path())
        })?;
        let coord = fx
            .coordinator()
            .expect("a cluster fixture has a coordinator");
        self.read_section(fx, Route::Cluster, |t, i| t.replay_cluster(&coord, i));
        drop(coord);
        if let Some(fx) = aux_cluster {
            fx.close();
        }

        let probes = self.probes(&db, engine_dir, ping_us)?;
        drop(db);
        if let Some(fx) = aux_engine {
            fx.close();
        }
        self.derive(&probes, report);
        report.ops_attempted += self.attempted;
        report.ops_failed += self.failed;
        let path = crate::out_dir().join(format!("{}.trace.jsonl", self.spec.name));
        self.rec.write_jsonl(&path)?;
        Ok(())
    }

    /// Fixed probes: kernels on real documents, the executor and tracer
    /// ratios on this workload's ops, and — last, because they rewrite the
    /// object — one retile and one defrag.
    fn probes(&mut self, db: &Db, engine_dir: &Path, ping_us: f64) -> Res<Probes> {
        let spec = self.spec;
        let meta = db.object(spec.object)?;
        let boxes: Vec<(Domain, u64)> = meta
            .tiles
            .iter()
            .enumerate()
            .map(|(i, t)| (t.domain.clone(), i as u64))
            .collect();
        let bulk_load_ms = median_call_us(5, || {
            black_box(RPlusTree::bulk_load(2, DEFAULT_FANOUT, boxes.clone()).is_ok());
        }) / 1e3;

        let page = vec![0xA5u8; db.blob_store().page_store().page_size()];
        let crc_mib_s = throughput_mib_s(page.len(), 50, || {
            black_box(crc32(black_box(&page)));
        });
        let mut cells = Vec::new();
        gen::fill(spec, self.seed, self.ops[0].origin, spec.win, &mut cells);
        let hex_mib_s = throughput_mib_s(cells.len(), 50, || {
            black_box(hex_decode(&hex_encode(black_box(&cells))).is_ok());
        });

        let catalog = std::fs::read_to_string(engine_dir.join(tilestore_engine::CATALOG_FILE))?;
        let docs = [self.response_doc.as_str(), catalog.as_str()];
        let doc_bytes: usize = docs.iter().map(|d| d.len()).sum();
        let parsed: Vec<Json> = docs
            .iter()
            .map(|d| Json::parse(d))
            .collect::<Result<_, _>>()?;
        let json_parse_mib_s = throughput_mib_s(doc_bytes, 50, || {
            for d in docs {
                black_box(Json::parse(d).is_ok());
            }
        });
        let json_write_mib_s = throughput_mib_s(doc_bytes, 50, || {
            for d in &parsed {
                black_box(d.to_string_compact());
            }
        });

        // The band fan-out wake-up cost: three no-op tasks, as a query over
        // three tile rows scatters them.
        let pool = ThreadPool::new(2);
        let scatter_us = median_call_us(2000, || {
            black_box(pool.scatter(vec![0u8; 3], |_, x| x));
        });
        drop(pool);

        // The same ops with and without an executor attached: `serve`
        // attaches one sized to the machine, `open_dir` does not. On the one
        // CPU `run.sh` allows, that is one worker: the ratio prices the
        // executor's bookkeeping, not parallelism.
        let ops = &self.ops[..aux_ops(spec).min(self.ops.len())];
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let parallel = Database::open_dir(engine_dir)?;
        parallel.set_executor(Arc::new(ThreadPool::new(workers)));
        let serial_us = range_query_median_us(self, db, ops);
        let parallel_us = range_query_median_us(self, &parallel, ops);
        drop(parallel);

        let off_us = range_query_median_us(self, db, ops);
        tilestore_obs::tracer().enable(4096);
        let on_us = range_query_median_us(self, db, ops);
        tilestore_obs::tracer().disable();
        drop(tilestore_obs::tracer().drain());

        let t0 = Instant::now();
        self.check(db.retile(spec.object, scheme(64 << 10)).is_ok());
        let retile_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        self.check(db.defrag(spec.object).is_ok());
        let defrag_s = t0.elapsed().as_secs_f64();
        let probe = &self.ops[0];
        let intact = db.range_query(spec.object, &probe.region).is_ok_and(|q| {
            gen::verify(spec, self.seed, &probe.region, q.array.bytes(), Check::Full)
        });
        self.check(intact);

        Ok(Probes {
            bulk_load_ms,
            crc_mib_s,
            hex_mib_s,
            json_parse_mib_s,
            json_write_mib_s,
            scatter_us,
            parallel_over_serial: parallel_us / serial_us,
            tracer_on_over_off: on_us / off_us,
            ping_us,
            retile_s,
            defrag_s,
        })
    }

    /// Turns spans, counts and probes into the per-layer metrics.
    fn derive(&self, p: &Probes, report: &mut Report) {
        let route = self.spec.route;
        let index = self.med("index.search");
        let blob_read = self.med("storage.blob_read");
        let decompress = self.med("compress.decompress");
        let range_query = self.med("engine.range_query");
        let op_served = self.med("op.served");
        let codec: f64 = CODEC_STAGES.iter().map(|s| self.med(s)).sum();
        let coordinator = self.med("cluster.coordinator_query");

        let (hits, _) = self.count_sum("replay.engine", "cache_hits");
        let (misses, _) = self.count_sum("replay.engine", "cache_misses");
        let (processed, _) = self.count_sum("replay.engine", "cells_processed");
        let (copied, _) = self.count_sum("replay.engine", "cells_copied");
        let (raw_out, n_dec) = self.count_sum("replay.engine", "raw_bytes");
        let (raw_in, _) = self.count_sum("replay.ingest", "raw_bytes");
        let (stream, _) = self.count_sum("replay.ingest", "stream_bytes");
        let (frame_bytes, n_frames) = self.count_sum("replay.served", "frame_bytes");
        let (cell_bytes, _) = self.count_sum("replay.served", "cell_bytes");
        let shards: Vec<f64> = self
            .rec
            .spans()
            .iter()
            .filter(|s| s.name == "replay.cluster")
            .map(|s| s.counts[0].1 as f64)
            .collect();
        let straddles = shards.iter().filter(|&&s| s > 1.0).count() as f64;

        let stages: Vec<&str> = match route {
            Route::Engine => ENGINE_STAGES.to_vec(),
            Route::Served => [ENGINE_STAGES, CODEC_STAGES].concat(),
            Route::Cluster => [CLUSTER_STAGES, ENGINE_STAGES, CODEC_STAGES].concat(),
            Route::Ingest => INGEST_STAGES.to_vec(),
        };
        let replayed: f64 = stages.iter().map(|s| self.med(s)).sum();
        let traced = self.traced_round.as_ref().expect("the traced round ran");
        let traced_ops_per_s = traced.lat_us.len() as f64 / traced.wall_s;
        let mut untraced: Vec<f64> = report
            .per_round
            .iter()
            .find(|(k, _)| *k == "ops_per_s")
            .map(|(_, v)| v.clone())
            .expect("timed rounds ran before the traced one");
        let counter = |key: &str| {
            report
                .counters
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(0.0, |&(_, v)| v as f64)
        };
        let cpu_per_op = counter("cpu_us") / (report.rounds * report.ops_per_round) as f64;
        let mut served_lat = self.rec.per_op_us("op.served");

        let values: Vec<(&str, f64)> = vec![
            ("geometry.domain_ops_us", self.med("geometry.domain_ops")),
            ("tiling.partition_us", self.med("tiling.partition")),
            (
                "tiling.tiles_per_insert",
                self.count_mean("replay.ingest", "tiles"),
            ),
            ("index.search_us", index),
            (
                "index.nodes_per_op",
                self.count_mean("replay.engine", "index_nodes"),
            ),
            (
                "index.hits_per_op",
                self.count_mean("replay.engine", "index_hits"),
            ),
            ("index.bulk_load_ms", p.bulk_load_ms),
            ("storage.blob_read_us", blob_read),
            (
                "storage.pages_read_per_op",
                self.count_mean("replay.engine", "pages_read"),
            ),
            ("storage.cache_hit_ratio", hits / (hits + misses).max(1.0)),
            (
                "storage.runs_per_op",
                self.count_mean("replay.engine", "positioned_reads"),
            ),
            (
                "storage.readahead_bytes_per_op",
                self.count_mean("replay.engine", "readahead_bytes"),
            ),
            ("storage.crc_mib_s", p.crc_mib_s),
            (
                "storage.model_t_o_ms",
                self.count_mean("replay.engine", "model_t_o_ns") / 1e6,
            ),
            ("storage.blob_write_us", self.med("storage.blob_write")),
            (
                "storage.pages_written_per_op",
                self.count_mean("op.ingest", "pages_written"),
            ),
            ("storage.sync_us", self.med("storage.sync")),
            ("compress.decompress_us", decompress),
            (
                "compress.decompress_mib_s",
                raw_out / n_dec.max(1.0) / (1 << 20) as f64 / (decompress / 1e6),
            ),
            ("compress.compress_us", self.med("compress.compress")),
            ("compress.ratio", raw_in / stream.max(1.0)),
            ("engine.begin_read_us", self.med("engine.begin_read")),
            ("engine.range_query_us", range_query),
            (
                "engine.assemble_us",
                range_query - index - blob_read - decompress,
            ),
            (
                "engine.cells_wasted_ratio",
                (processed - copied) / processed.max(1.0),
            ),
            ("engine.insert_us", self.med("engine.insert")),
            ("engine.commit_us", self.med("engine.commit")),
            (
                "engine.catalog_bytes",
                self.count_mean("op.ingest", "catalog_bytes"),
            ),
            ("engine.retile_s", p.retile_s),
            ("engine.defrag_s", p.defrag_s),
            ("rasql.parse_us", self.med("rasql.parse")),
            (
                "rasql.execute_self_us",
                self.med("rasql.execute") - range_query,
            ),
            ("exec.scatter_overhead_us", p.scatter_us),
            ("exec.parallel_over_serial", p.parallel_over_serial),
            ("obs.tracer_on_over_off", p.tracer_on_over_off),
            ("server.ping_rtt_us", p.ping_us),
            (
                "server.request_encode_us",
                self.med("server.request_encode"),
            ),
            (
                "server.request_decode_us",
                self.med("server.request_decode"),
            ),
            ("server.result_encode_us", self.med("server.result_encode")),
            ("server.result_decode_us", self.med("server.result_decode")),
            ("server.hex_mib_s", p.hex_mib_s),
            ("server.frame_bytes_per_op", frame_bytes / n_frames.max(1.0)),
            ("server.wire_amp", frame_bytes / cell_bytes.max(1.0)),
            (
                "server.transport_residual_us",
                op_served - self.med("server.execute") - codec,
            ),
            ("server.op_p99_us", percentile(&mut served_lat, 99.0)),
            ("cluster.route_us", self.med("cluster.route")),
            ("cluster.coordinator_query_us", coordinator),
            (
                "cluster.scatter_gather_overhead_us",
                coordinator - range_query,
            ),
            (
                "cluster.shards_per_op",
                shards.iter().sum::<f64>() / shards.len() as f64,
            ),
            ("cluster.straddle_ratio", straddles / shards.len() as f64),
            ("testkit.json_parse_mib_s", p.json_parse_mib_s),
            ("testkit.json_write_mib_s", p.json_write_mib_s),
            ("proc.cpu_us_per_op", cpu_per_op),
            (
                "trace.replay_coverage",
                replayed / self.med(root_span(route)),
            ),
            (
                "trace.overhead_ratio",
                traced_ops_per_s / median(&mut untraced),
            ),
        ];
        report.layers = LAYER_METRICS
            .iter()
            .map(|&(name, unit, _)| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was not derived"))
                    .1;
                // Ops behind a stage timing; derived numbers and probes say 1.
                let stage = name.trim_end_matches("_us");
                let n = self.rec.per_op_us(stage).len().max(1) as u64;
                Metric {
                    modelled: name == "storage.model_t_o_ms",
                    ..Metric::new(name, value, unit, n)
                }
            })
            .collect();
    }
}

/// Traced run of a read workload: `fx` is its live fixture over the
/// committed dataset in `dir`.
pub fn trace_read(
    spec: &Spec,
    seed: u64,
    fx: &mut Fixture,
    dir: &Path,
    ops: &[ReadOp],
    report: &mut Report,
) -> Res<()> {
    let mut t = Tracer::new(spec, seed, ops);
    // A single-engine copy of the dataset: a cluster root holds shards.
    let copy = tempdir()?;
    let engine_dir = if spec.route == Route::Cluster {
        build_engine_dir(spec, seed, copy.path())?;
        copy.path()
    } else {
        dir
    };
    let ingest_dir = tempdir()?;
    let ingest = t.ingest_section(ingest_dir.path(), spec.slabs().min(16), 1)?;
    t.keep(Route::Ingest, ingest);
    t.finish(Some(fx), engine_dir, report)
}

/// Traced run of the ingest workload: its traced round goes into a fresh
/// directory, which then serves the read-side sections.
pub fn trace_ingest(spec: &Spec, seed: u64, report: &mut Report) -> Res<()> {
    let ops = gen::read_ops(spec, seed, spec.ops_per_round);
    let mut t = Tracer::new(spec, seed, &ops);
    let dir = tempdir()?;
    let traced = t.ingest_section(dir.path(), spec.ops_per_round, SAMPLE_EVERY)?;
    t.keep(Route::Ingest, traced);
    t.finish(None, dir.path(), report)
}
