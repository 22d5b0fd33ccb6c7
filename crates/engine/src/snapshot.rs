//! Epoch-based snapshot reads.
//!
//! The catalog — object map, tile lists, tile indexes — is an immutable
//! [`CatalogState`] behind an `Arc`. Readers call `Database::begin_read`
//! and get a [`Snapshot`]: an `Arc` clone of the catalog plus handles to
//! the shared BLOB store. From that point a query never takes any
//! database-wide lock: the snapshot's tile metadata cannot change, and
//! the pages of its tiles cannot be reclaimed while it lives.
//!
//! Writers build a *new* catalog copy-on-write and publish it with a
//! single pointer swap (see `Database::swap_catalog`), stamping it with
//! the next epoch. Blobs the new catalog no longer references are not
//! deleted immediately: they are *retired* into the [`EpochTracker`],
//! which holds them until the last snapshot whose epoch still sees them
//! drops. Deletion then feeds the PR-3 page quarantine, so the pages only
//! become reusable after the next durable commit — the crash-consistency
//! story is unchanged, snapshots just defer the hand-off.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use tilestore_compress::CellContext;
use tilestore_geometry::{copy_region, Domain};
use tilestore_obs::AccessRecorder;
use tilestore_storage::{BlobId, BlobStore, IoSnapshot, PageStore};

use crate::access::{AccessLog, AccessRegion};
use crate::array::Array;
use crate::error::{EngineError, Result};
use crate::mdd::{MddObject, TileMeta};
use crate::predicate::CellPredicate;
use crate::stats::QueryStats;

/// Locks a mutex, recovering from poisoning. A panicking writer must not
/// take the whole engine down, but silent recovery hid real bugs: every
/// recovery now bumps the `engine.lock_poisoned` counter so operators see
/// that a lock holder died mid-section.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        tilestore_obs::hot().lock_poisoned.inc();
        poisoned.into_inner()
    })
}

/// One object in a catalog snapshot: immutable metadata plus the shared
/// access log. The log `Arc` is carried from catalog to catalog across
/// writer swaps (it is internally synchronized), so accesses recorded
/// through an old snapshot still feed statistic tiling.
#[derive(Clone)]
pub(crate) struct ObjectEntry {
    pub(crate) meta: Arc<MddObject>,
    pub(crate) log: Arc<AccessLog>,
}

/// An immutable, versioned catalog: the unit readers pin and writers swap.
pub(crate) struct CatalogState {
    /// Snapshot epoch: bumped by every writer swap. Independent of the
    /// *durable* commit epoch (`Database::catalog_epoch`), which only
    /// `save` advances; a reopened database seeds this from the persisted
    /// value so epochs keep growing monotonically across restarts.
    pub(crate) version: u64,
    pub(crate) objects: BTreeMap<String, ObjectEntry>,
}

impl CatalogState {
    pub(crate) fn empty(version: u64) -> Self {
        CatalogState {
            version,
            objects: BTreeMap::new(),
        }
    }

    pub(crate) fn entry(&self, name: &str) -> Result<&ObjectEntry> {
        self.objects
            .get(name)
            .ok_or_else(|| EngineError::UnknownObject(name.to_string()))
    }
}

/// Refcounts of live snapshots per epoch plus the blobs retired by each
/// writer swap, with the rule that makes deferred reclamation safe: a
/// blob retired by the swap that produced epoch `N` is readable by
/// snapshots with epoch `< N`, so it may be deleted once no live snapshot
/// has an epoch `< N` — equivalently once `min(live epochs) >= N`, or no
/// snapshot is live at all.
#[derive(Default)]
pub(crate) struct EpochTracker {
    inner: Mutex<TrackerInner>,
}

#[derive(Default)]
struct TrackerInner {
    /// epoch -> number of live snapshots pinned at it.
    live: BTreeMap<u64, u64>,
    /// swap epoch -> blobs the swap stopped referencing.
    retired: BTreeMap<u64, Vec<BlobId>>,
}

impl TrackerInner {
    /// Removes and returns every retired set that no live snapshot can
    /// still read.
    fn drain_reclaimable(&mut self) -> Vec<BlobId> {
        let min_live = self.live.keys().next().copied();
        let keys: Vec<u64> = match min_live {
            None => self.retired.keys().copied().collect(),
            Some(m) => self.retired.range(..=m).map(|(&k, _)| k).collect(),
        };
        let mut out = Vec::new();
        for k in keys {
            if let Some(blobs) = self.retired.remove(&k) {
                out.extend(blobs);
            }
        }
        out
    }
}

impl EpochTracker {
    /// Registers a new snapshot at `epoch`.
    pub(crate) fn acquire(&self, epoch: u64) {
        let mut inner = lock_recover(&self.inner);
        *inner.live.entry(epoch).or_insert(0) += 1;
    }

    /// Releases one snapshot at `epoch`, returning the blobs that became
    /// reclaimable (the caller deletes them from the BLOB store).
    pub(crate) fn release(&self, epoch: u64) -> Vec<BlobId> {
        let mut inner = lock_recover(&self.inner);
        if let Some(count) = inner.live.get_mut(&epoch) {
            *count -= 1;
            if *count == 0 {
                inner.live.remove(&epoch);
            }
        }
        inner.drain_reclaimable()
    }

    /// Records blobs unreferenced by the swap that produced `epoch`,
    /// returning any that are immediately reclaimable (no live snapshot
    /// predates the swap — the common case with no concurrent readers).
    pub(crate) fn retire(&self, epoch: u64, blobs: Vec<BlobId>) -> Vec<BlobId> {
        let mut inner = lock_recover(&self.inner);
        if !blobs.is_empty() {
            inner.retired.entry(epoch).or_default().extend(blobs);
        }
        inner.drain_reclaimable()
    }

    /// Ids of every retired-but-undeleted blob. `save` excludes these from
    /// the exported directory: the catalog being written no longer
    /// references them, so a reopen must see their pages as free even
    /// though live snapshots keep them readable in memory.
    pub(crate) fn pending_blobs(&self) -> BTreeSet<u64> {
        let inner = lock_recover(&self.inner);
        inner.retired.values().flatten().map(|b| b.0).collect()
    }

    /// Number of live snapshots. This is the cluster coordinator's pinning
    /// surface: fault-injection tests assert a shard's count returns to
    /// baseline after a partial failure (no leaked pinned snapshots).
    pub(crate) fn live_snapshots(&self) -> u64 {
        lock_recover(&self.inner).live.values().sum()
    }
}

/// A query result: the materialized sub-array, the §6 execution counters,
/// and the catalog epoch the query observed.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The result array (uncovered cells hold the type's default).
    pub array: Array,
    /// Execution counters (`t_ix`/`t_o`/`t_cpu` decomposition inputs).
    pub stats: QueryStats,
    /// Epoch of the catalog snapshot the query executed against.
    pub epoch: u64,
}

/// A write acknowledgement: the operation's statistics plus the catalog
/// epoch the write produced. Derefs to the statistics, so existing
/// `receipt.tiles_created`-style field access keeps working.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteReceipt<T> {
    /// The operation's statistics.
    pub stats: T,
    /// Epoch of the catalog the write published.
    pub epoch: u64,
}

impl<T> std::ops::Deref for WriteReceipt<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.stats
    }
}

/// A consistent read view of the database at one catalog epoch.
///
/// Obtained from `Database::begin_read` (or `SharedDatabase::snapshot`).
/// Queries through a snapshot never block on writers and writers never
/// block on them: the catalog is immutable, the BLOB store is internally
/// synchronized, and the tiles this snapshot references are protected
/// from reclamation until it drops. Holding a snapshot across a writer
/// commit keeps the *pre-commit* contents readable — drop it promptly on
/// hot paths so retired tiles can be reclaimed.
pub struct Snapshot<S: PageStore> {
    pub(crate) catalog: Arc<CatalogState>,
    pub(crate) blobs: Arc<BlobStore<S>>,
    pub(crate) tracker: Arc<EpochTracker>,
    pub(crate) recorder: Option<Arc<AccessRecorder>>,
    /// Request id queries through this snapshot are attributed to (0 =
    /// none). Atomic so the serving layer can stamp a shared snapshot.
    pub(crate) request: AtomicU64,
}

impl<S: PageStore> Drop for Snapshot<S> {
    fn drop(&mut self) {
        for id in self.tracker.release(self.catalog.version) {
            // The blob may legitimately be gone if the store was torn down
            // around us; reclamation is best-effort by design.
            let _ = self.blobs.delete(id);
        }
        tilestore_obs::hot().snapshots_active.add(-1);
    }
}

impl<S: PageStore> Snapshot<S> {
    /// The catalog epoch this snapshot observes.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.catalog.version
    }

    /// Tags every query executed through this snapshot with `request_id`:
    /// all spans and events it produces carry the id, so one request's span
    /// tree can be exported from the shared trace ring.
    pub fn set_request_id(&self, request_id: u64) {
        self.request.store(request_id, Ordering::Relaxed);
    }

    /// The request id set by [`Snapshot::set_request_id`] (0 = none).
    #[must_use]
    pub fn request_id(&self) -> u64 {
        self.request.load(Ordering::Relaxed)
    }

    /// Enters the tracer's request scope when this snapshot carries a
    /// request id, so engine spans below the caller get tagged. With no id
    /// set the ambient scope (e.g. one the server already entered) is left
    /// untouched.
    pub(crate) fn request_scope(&self) -> Option<tilestore_obs::RequestScope> {
        let rid = self.request_id();
        (rid != 0).then(|| tilestore_obs::request_scope(rid))
    }

    /// Names of all objects in this snapshot.
    #[must_use]
    pub fn object_names(&self) -> Vec<String> {
        self.catalog.objects.keys().cloned().collect()
    }

    /// Metadata of one object as of this snapshot.
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`].
    pub fn object(&self, name: &str) -> Result<Arc<MddObject>> {
        self.catalog.entry(name).map(|e| Arc::clone(&e.meta))
    }

    /// The (shared, live) access log of one object.
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`].
    pub fn access_log(&self, name: &str) -> Result<Arc<AccessLog>> {
        self.catalog.entry(name).map(|e| Arc::clone(&e.log))
    }

    /// Records an executed access for statistic tiling: the in-process
    /// log always, the persistent recorder when attached.
    pub(crate) fn record_access(&self, name: &str, entry: &ObjectEntry, region: &Domain) {
        let key = region.to_string();
        entry.log.record_keyed(&key, region);
        if let Some(rec) = &self.recorder {
            if rec.record(name, &key).is_err() {
                tilestore_obs::metrics()
                    .counter("engine.recorder_errors")
                    .inc();
            }
        }
    }

    /// Executes a range query (§5.1 type (b)) against this snapshot.
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`], domain validation errors, storage
    /// errors.
    pub fn range_query(&self, name: &str, region: &Domain) -> Result<QueryResult> {
        self.range_query_where(name, region, None)
    }

    /// Executes a range query with an optional cell-value predicate:
    /// cells failing `cell <op> literal` read as the type's default value
    /// (masked select). Tiles whose synopsis *proves* they cannot hold a
    /// matching cell are never fetched — their blobs stay untouched and
    /// they count in [`QueryStats::tiles_pruned`]; pruning is
    /// conservative, so the result is byte-identical to masking a full
    /// scan.
    ///
    /// # Errors
    /// The errors of [`Snapshot::range_query`]; additionally a predicate
    /// over a non-numeric cell type is rejected up front.
    pub fn range_query_where(
        &self,
        name: &str,
        region: &Domain,
        predicate: Option<&CellPredicate>,
    ) -> Result<QueryResult> {
        let _req = self.request_scope();
        let _span =
            tilestore_obs::tracer().span_with("query", || format!("object={name} region={region}"));
        let started = Instant::now();
        let plan = self.plan(name, region, predicate, None)?;
        self.record_access(name, self.catalog.entry(name)?, region);
        let meta = &plan.object;
        let cell = &meta.mdd_type.cell;
        let mut array = Array::filled(region.clone(), &cell.default)?;
        let out = array.bytes_mut();
        let mut stats = plan.stats();
        // The plan's batches coalesce tiles on consecutive pages into one
        // positioned read; a raw tile's clip is pasted straight from its
        // page frames, a compressed one's from its decoded cells.
        stats.io = plan.fetch(&self.blobs, |pos, cells| {
            let tile = &meta.tiles[pos as usize];
            let clip = tile
                .domain
                .intersection(region)
                .expect("index returned an intersecting tile");
            stats.cells_processed += tile.domain.cells();
            stats.cells_copied += match predicate {
                // Masked select: failing cells become the default before the
                // paste, rewritten in the plan's own buffers, never in a
                // frame the pool shares.
                Some(p) => {
                    let bytes = cells.bytes_mut();
                    p.mask_payload(cell, bytes)?;
                    copy_region(&tile.domain, bytes, region, out, &clip, cell.size)?
                }
                None => cells.paste(&tile.domain, region, out, &clip, cell.size)?,
            };
            Ok(())
        })?;
        stats.cells_defaulted = region.cells() - stats.cells_copied;
        record_query(&mut stats, started);
        Ok(QueryResult {
            array,
            stats,
            epoch: self.catalog.version,
        })
    }

    /// Executes any §5.1 access against this snapshot. Sections (type (d))
    /// come back with the fixed axes dropped from the result's
    /// dimensionality.
    ///
    /// # Errors
    /// [`EngineError::EmptyObject`] when the object holds no cells, plus
    /// the errors of [`Snapshot::range_query`].
    pub fn query(&self, name: &str, access: &AccessRegion) -> Result<QueryResult> {
        self.query_where(name, access, None)
    }

    /// Executes any §5.1 access with an optional cell-value predicate (see
    /// [`Snapshot::range_query_where`] for the masked-select semantics).
    ///
    /// # Errors
    /// The errors of [`Snapshot::query`]; a predicate over a non-numeric
    /// cell type is rejected up front.
    pub fn query_where(
        &self,
        name: &str,
        access: &AccessRegion,
        predicate: Option<&CellPredicate>,
    ) -> Result<QueryResult> {
        let entry = self.catalog.entry(name)?;
        let current = entry
            .meta
            .current_domain
            .as_ref()
            .ok_or_else(|| EngineError::EmptyObject(name.to_string()))?;
        let (region, fixed_axes) = access.resolve(current)?;
        let result = self.range_query_where(name, &region, predicate)?;
        if fixed_axes.is_empty() {
            return Ok(result);
        }
        let section_domain = region.project_out(&fixed_axes)?;
        Ok(QueryResult {
            array: result.array.reshaped(section_domain)?,
            stats: result.stats,
            epoch: result.epoch,
        })
    }
}

/// Fetches and decompresses one tile's cell payload, with the counts of
/// the read.
pub(crate) fn read_tile_payload<S: PageStore>(
    blobs: &BlobStore<S>,
    meta: &MddObject,
    tile: &TileMeta,
) -> Result<(Vec<u8>, IoSnapshot)> {
    let mut stream = Vec::new();
    let io = blobs.read_into(tile.blob, &mut stream)?;
    let ctx = CellContext {
        cell_size: meta.cell_size(),
        default: &meta.mdd_type.cell.default,
    };
    let payload = tilestore_compress::decompress(&stream, &ctx)
        .map_err(|e| EngineError::Catalog(format!("tile decompression failed: {e}")))?;
    Ok((payload, io))
}

/// Closes one query's accounting: stamps its wall-clock time and feeds the
/// engine's hot metrics. Range reads and aggregates both end here, so
/// `engine.queries` and its latency/tile histograms count every statement
/// that consults the index.
pub(crate) fn record_query(stats: &mut QueryStats, started: Instant) {
    stats.elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let hot = tilestore_obs::hot();
    hot.queries.inc();
    hot.query_latency_ns.record(stats.elapsed_ns);
    hot.query_tiles.record(stats.tiles_read);
    hot.tiles_pruned.add(stats.tiles_pruned);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(ids: &[u64]) -> Vec<BlobId> {
        ids.iter().map(|&i| BlobId(i)).collect()
    }

    #[test]
    fn retire_with_no_live_snapshots_is_immediate() {
        let t = EpochTracker::default();
        assert_eq!(t.retire(1, b(&[10, 11])), b(&[10, 11]));
        assert!(t.pending_blobs().is_empty());
    }

    #[test]
    fn retire_defers_until_the_predating_snapshot_drops() {
        let t = EpochTracker::default();
        t.acquire(0); // a snapshot at epoch 0
                      // A swap to epoch 1 retires blobs the epoch-0 snapshot still reads.
        assert_eq!(t.retire(1, b(&[7])), Vec::new());
        assert_eq!(
            t.pending_blobs(),
            [7u64].into_iter().collect::<BTreeSet<u64>>()
        );
        // A snapshot at the *new* epoch does not keep them alive.
        t.acquire(1);
        assert_eq!(t.release(1), Vec::new());
        // The old snapshot dropping releases the retired set.
        assert_eq!(t.release(0), b(&[7]));
        assert!(t.pending_blobs().is_empty());
    }

    #[test]
    fn refcounts_nest_per_epoch() {
        let t = EpochTracker::default();
        t.acquire(3);
        t.acquire(3);
        assert_eq!(t.retire(4, b(&[1])), Vec::new());
        assert_eq!(t.release(3), Vec::new(), "one of two refs still live");
        assert_eq!(t.release(3), b(&[1]));
        assert_eq!(t.live_snapshots(), 0);
    }

    #[test]
    fn interleaved_retirements_release_in_epoch_order() {
        let t = EpochTracker::default();
        t.acquire(0);
        assert_eq!(t.retire(1, b(&[1])), Vec::new());
        t.acquire(1);
        assert_eq!(t.retire(2, b(&[2])), Vec::new());
        // Dropping the epoch-0 snapshot frees only the epoch-1 set: the
        // epoch-1 snapshot still reads blobs retired by the swap to 2.
        assert_eq!(t.release(0), b(&[1]));
        assert_eq!(t.pending_blobs().len(), 1);
        assert_eq!(t.release(1), b(&[2]));
    }

    #[test]
    fn write_receipt_derefs_to_stats() {
        use crate::stats::InsertStats;
        let receipt = WriteReceipt {
            stats: InsertStats {
                tiles_created: 4,
                ..InsertStats::default()
            },
            epoch: 9,
        };
        assert_eq!(receipt.tiles_created, 4, "Deref exposes stats fields");
        assert_eq!(receipt.epoch, 9);
        assert_eq!(receipt.stats.tiles_created, 4);
    }

    #[test]
    fn lock_recover_counts_poisoning() {
        use std::sync::{Arc, Mutex};
        let m = Arc::new(Mutex::new(0u32));
        let poisoner = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = poisoner.lock().unwrap();
            panic!("poison the mutex");
        })
        .join();
        assert!(m.is_poisoned());
        let before = tilestore_obs::hot().lock_poisoned.get();
        *lock_recover(&m) += 1;
        assert_eq!(*lock_recover(&m), 1, "recovered guard stays usable");
        assert!(
            tilestore_obs::hot().lock_poisoned.get() >= before + 2,
            "every poisoned acquisition bumps engine.lock_poisoned"
        );
    }
}
