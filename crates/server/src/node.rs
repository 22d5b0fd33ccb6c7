//! The single-engine backend: [`Service`] for a [`SharedDatabase`].
//!
//! Besides the shared ops it answers `pin`, `unpin` and `fsck`, which only
//! make sense against one engine: a cluster coordinator drives the first two
//! on its remote shards, and `fsck` audits one database directory.

use std::collections::BTreeMap;
use std::path::Path;

use tilestore_engine::{Array, Database, SharedDatabase, Snapshot};
use tilestore_rasql::StatementResult;
use tilestore_storage::PageStore;
use tilestore_testkit::{Json, ToJson};
use tilestore_tiling::RetileSpec;

use crate::service::{Answer, Call, Service, ServiceError, ServiceResult, Serving};
use crate::wire::{with_epoch, ErrorCode};

/// Upper bound on snapshots one connection may hold pinned at once. A
/// cluster coordinator pins one snapshot per in-flight cross-shard read, so
/// this bounds a misbehaving (or leaking) coordinator's hold on blob
/// reclamation without affecting well-behaved ones.
const MAX_PINS_PER_CONNECTION: usize = 64;

/// Snapshots a connection has pinned via the `pin` op, keyed by the
/// server-assigned pin id. The table is **per connection** and dropped with
/// it, so a coordinator that dies mid-scatter releases every pin on this
/// shard the moment its TCP session ends — `snapshots_active` returns to
/// baseline without any distributed garbage collection.
pub struct PinTable<S: PageStore> {
    next: u64,
    pins: BTreeMap<u64, Snapshot<S>>,
}

impl<S: PageStore> Default for PinTable<S> {
    fn default() -> Self {
        PinTable {
            next: 1,
            pins: BTreeMap::new(),
        }
    }
}

impl<S: PageStore> PinTable<S> {
    /// The snapshot pinned as `call`'s `pin` field, if the call names one.
    fn named(&self, call: &Call<'_>) -> ServiceResult<Option<&Snapshot<S>>> {
        let Some(pin) = call.req.get("pin").and_then(Json::as_u64) else {
            return Ok(None);
        };
        match self.pins.get(&pin) {
            Some(snap) => Ok(Some(snap)),
            None => Err(ServiceError::bad_request(format!("unknown pin {pin}"))),
        }
    }
}

impl<S: PageStore + 'static> Service for SharedDatabase<S> {
    type Session = PinTable<S>;

    fn query(&self, pins: &mut PinTable<S>, q: &str, call: &Call<'_>) -> ServiceResult<Answer> {
        // Queries run against an epoch-stamped snapshot: no lock is held
        // across tile I/O, so a concurrent writer never blocks this
        // request and the response names the epoch it observed. The
        // snapshot carries the request id so engine-side spans (and the
        // scattered tile fetches) stay attributed to this request. A
        // request naming a `pin` executes against that previously pinned
        // snapshot instead — the cluster coordinator's epoch-agreement
        // path, where every shard must answer from the epoch pinned at
        // the consistency point, not from "now".
        let fresh;
        let snap = match pins.named(call)? {
            Some(pinned) => pinned,
            None => {
                fresh = self.snapshot();
                &fresh
            }
        };
        snap.set_request_id(call.request_id);
        let epoch = snap.epoch();
        Ok(match tilestore_rasql::execute_statement(snap, q)? {
            StatementResult::Value(value, stats) => Answer::value(value, stats, epoch, call),
            StatementResult::Explain(report) => Answer {
                stats: report.analyze.as_ref().map(|a| a.stats),
                result: with_epoch(report.to_json(), epoch),
                epoch,
                cells: None,
            },
        })
    }

    fn insert(&self, object: &str, array: &Array) -> ServiceResult<Json> {
        // `Database::` by path: the trait's own `insert` shadows the engine's
        // on a `SharedDatabase` receiver.
        let receipt = Database::insert(self, object, array).map_err(ServiceError::engine)?;
        Ok(with_epoch(receipt.stats.to_json(), receipt.epoch))
    }

    fn retile(&self, object: &str, spec: &str) -> ServiceResult<Json> {
        // Same grammar as the CLI: scheme | --from-log[:..] | --defrag[:..].
        let parsed =
            tilestore_tiling::parse_retile_spec(spec).map_err(ServiceError::bad_request)?;
        let receipt = match parsed {
            RetileSpec::Defrag { budget_bytes } => self.defrag_paced(object, budget_bytes),
            RetileSpec::FromLog {
                distance,
                frequency,
                max_tile_bytes,
            } => self.auto_retile_from_log(object, distance, frequency, max_tile_bytes),
            RetileSpec::Scheme(_) => {
                let dim = self
                    .object(object)
                    .map_err(ServiceError::engine)?
                    .mdd_type
                    .dim();
                let scheme = tilestore_tiling::parse_scheme_spec(spec, dim)
                    .map_err(ServiceError::bad_request)?;
                Database::retile(self, object, scheme)
            }
        }
        .map_err(ServiceError::engine)?;
        Ok(with_epoch(receipt.stats.to_json(), receipt.epoch))
    }

    fn info(&self, pins: &mut PinTable<S>, object: &str, call: &Call<'_>) -> ServiceResult<Json> {
        // With a `pin`, metadata comes from the pinned snapshot so a
        // coordinator resolving `*` bounds sees the same catalog state
        // its queries will execute against.
        if let Some(snap) = pins.named(call)? {
            let o = snap.object(object).map_err(ServiceError::engine)?;
            return Ok(with_epoch(object_info(&o), snap.epoch()));
        }
        let o = self.object(object).map_err(ServiceError::engine)?;
        Ok(object_info(&o))
    }

    fn stats(&self) -> ServiceResult<Json> {
        // One snapshot for the whole report: names, metadata and the
        // epoch all describe the same catalog state.
        let snap = self.snapshot();
        let objects = snap
            .object_names()
            .iter()
            .filter_map(|n| snap.object(n).ok().map(|o| object_info(&o)))
            .collect::<Vec<_>>();
        Ok(Json::obj(vec![
            ("objects", Json::Array(objects)),
            ("io", self.io_stats().snapshot().to_json()),
            ("metrics", tilestore_obs::metrics().snapshot().to_json()),
            ("epoch", Json::UInt(snap.epoch())),
        ]))
    }

    /// A cheap liveness report (no blob I/O) that surfaces the counters an
    /// unhealthy store would move.
    fn health(&self, serving: Serving) -> Json {
        let reg = tilestore_obs::metrics();
        let checksum_failures = reg.counter("storage.checksum_failures").get();
        let lock_poisoned = reg.counter("engine.lock_poisoned").get();
        let status = if checksum_failures == 0 && lock_poisoned == 0 {
            "ok"
        } else {
            "degraded"
        };
        let epoch = self.snapshot().epoch();
        // Read the gauge after the epoch probe's snapshot is dropped so the
        // report does not count its own probe.
        let snapshots_active = reg.gauge("engine.snapshots_active").get();
        Json::obj(vec![
            ("status", Json::Str(status.to_string())),
            ("epoch", Json::UInt(epoch)),
            ("snapshots_active", Json::Int(snapshots_active)),
            ("inflight", Json::UInt(serving.inflight)),
            ("checksum_failures", Json::UInt(checksum_failures)),
            ("lock_poisoned", Json::UInt(lock_poisoned)),
            ("slow_queries", Json::UInt(serving.slow_queries)),
            ("durable", Json::Bool(serving.durable)),
        ])
    }

    fn backend_op(&self, pins: &mut PinTable<S>, op: &str, call: &Call<'_>) -> ServiceResult<Json> {
        match op {
            "pin" => {
                // The epoch-agreement handshake: pin the current snapshot and
                // report its epoch. The snapshot stays alive (holding its epoch's
                // blobs readable) until `unpin` or the end of this connection.
                if pins.pins.len() >= MAX_PINS_PER_CONNECTION {
                    return Err(ServiceError::new(
                        ErrorCode::Busy,
                        format!("connection holds {MAX_PINS_PER_CONNECTION} pins (limit)"),
                    ));
                }
                let snap = self.snapshot();
                let (pin, epoch) = (pins.next, snap.epoch());
                pins.next += 1;
                pins.pins.insert(pin, snap);
                Ok(Json::obj(vec![
                    ("pin", Json::UInt(pin)),
                    ("epoch", Json::UInt(epoch)),
                ]))
            }
            "unpin" => {
                let Some(pin) = call.req.get("pin").and_then(Json::as_u64) else {
                    return Err(ServiceError::bad_request("unpin needs a `pin` id"));
                };
                match pins.pins.remove(&pin) {
                    Some(_) => Ok(Json::Str("unpinned".to_string())),
                    None => Err(ServiceError::bad_request(format!("unknown pin {pin}"))),
                }
            }
            "fsck" => {
                let Some(dir) = call.dir else {
                    return Err(ServiceError::engine(
                        "fsck needs a file-backed database directory",
                    ));
                };
                Database::save(self, dir)
                    .map_err(|e| ServiceError::engine(format!("pre-fsck save: {e}")))?;
                let report = tilestore_engine::fsck(dir).map_err(ServiceError::engine)?;
                Ok(fsck_to_json(&report))
            }
            other => Err(ServiceError::unknown_op(other)),
        }
    }

    fn save(&self, dir: &Path) -> ServiceResult<()> {
        Database::save(self, dir)
            .map(|_| ())
            .map_err(ServiceError::engine)
    }
}

/// Serializes an object's metadata for `info`/`stats` responses.
fn object_info(o: &tilestore_engine::MddObject) -> Json {
    Json::obj(vec![
        ("name", Json::Str(o.name.clone())),
        ("cell_size", Json::UInt(o.cell_size() as u64)),
        (
            "current_domain",
            o.current_domain
                .as_ref()
                .map_or(Json::Null, |d| Json::Str(d.to_string())),
        ),
        ("tiles", Json::UInt(o.tiles.len() as u64)),
        ("covered_cells", Json::UInt(o.covered_cells())),
        ("scheme", o.scheme.to_json()),
        // Additive: the full MDD type, so a cluster coordinator resolving
        // queries against remote shards knows the cell type (and its
        // default value) without a second protocol round.
        ("mdd_type", o.mdd_type.to_json()),
    ])
}

/// Serializes an fsck report (the engine type predates the wire layer and
/// carries no `ToJson` of its own).
fn fsck_to_json(r: &tilestore_engine::FsckReport) -> Json {
    Json::obj(vec![
        ("epoch", Json::UInt(r.epoch)),
        ("objects", Json::UInt(r.objects)),
        ("blobs", Json::UInt(r.blobs)),
        ("allocated_pages", Json::UInt(r.allocated_pages)),
        ("free_pages", Json::UInt(r.free_pages)),
        ("orphaned_pages", r.orphaned_pages.to_json()),
        ("dangling_pages", r.dangling_pages.to_json()),
        ("duplicated_pages", r.duplicated_pages.to_json()),
        ("unreadable_blobs", r.unreadable_blobs.to_json()),
        (
            "missing_tile_blobs",
            Json::Array(
                r.missing_tile_blobs
                    .iter()
                    .map(|(o, b)| {
                        Json::obj(vec![
                            ("object", Json::Str(o.clone())),
                            ("blob", Json::UInt(*b)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("stale_tmp", Json::Bool(r.stale_tmp)),
        ("clean", Json::Bool(r.is_clean())),
    ])
}
