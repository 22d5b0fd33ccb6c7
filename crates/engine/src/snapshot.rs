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
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use tilestore_compress::CellContext;
use tilestore_exec::{scatter_on, ThreadPool};
use tilestore_geometry::{copy_region, Domain};
use tilestore_obs::AccessRecorder;
use tilestore_storage::{BlobId, BlobPlacement, BlobStore, IoSnapshot, PageStore};

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
    pub(crate) executor: Option<Arc<ThreadPool>>,
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
    /// all spans and events it produces — including those recorded on
    /// executor worker threads — carry the id, so one request's span tree
    /// can be exported from the shared trace ring.
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
    fn record_access(&self, name: &str, entry: &ObjectEntry, region: &Domain) {
        entry.log.record(region);
        if let Some(rec) = &self.recorder {
            if rec.record(name, &region.to_string()).is_err() {
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
        let entry = self.catalog.entry(name)?;
        if predicate.is_some() {
            // A predicate compares numerically; reject Rgb-style cells here
            // rather than failing mid-scan.
            crate::aggregate::decode_numeric(
                &entry.meta.mdd_type.cell,
                &entry.meta.mdd_type.cell.default,
            )?;
        }
        if !entry.meta.mdd_type.definition.admits(region) {
            return Err(EngineError::OutsideDefinitionDomain {
                domain: region.to_string(),
                definition: entry.meta.mdd_type.definition.to_string(),
            });
        }
        let _req = self.request_scope();
        self.record_access(name, entry, region);
        let (array, stats) = execute_range(
            &self.blobs,
            self.executor.as_deref(),
            &entry.meta,
            region,
            predicate,
        )?;
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

/// Upper bound on the bytes one band stages per batched tile read. Large
/// enough that a defragmented range query coalesces many tiles into each
/// positioned read, small enough to bound the band's scratch buffer: at
/// 4 MiB the 64 MiB cold scan ran 28 % slower (p50) and held 1 MiB more
/// RSS than at 256 KiB.
const READAHEAD_BATCH_BYTES: usize = 256 << 10;

/// The physical read plan, shared by the band body and EXPLAIN so the two
/// cannot disagree: sorts `plan` by each blob's first page (elevator
/// order) and cuts it greedily into batches of at most
/// [`READAHEAD_BATCH_BYTES`] (always at least one tile), each fetched by one
/// `BlobStore::read_batch`. Within a batch, a blob whose pages directly
/// follow its predecessor's ([`folds_into`]) shares its positioned read.
pub(crate) fn read_batches<T>(
    plan: &mut [(T, BlobPlacement)],
    page_size: usize,
) -> Vec<Range<usize>> {
    plan.sort_by_key(|(_, p)| p.first_page.0);
    let cap = (READAHEAD_BATCH_BYTES / page_size).max(1) as u64;
    let mut batches = Vec::new();
    let mut i = 0;
    while i < plan.len() {
        let mut j = i;
        let mut pages = 0u64;
        while j < plan.len() && (j == i || pages + plan[j].1.pages <= cap) {
            pages += plan[j].1.pages;
            j += 1;
        }
        batches.push(i..j);
        i = j;
    }
    batches
}

/// Whether `next`'s pages directly follow `prev`'s, so a batch holding both
/// reads them with one positioned read.
pub(crate) fn folds_into(prev: &BlobPlacement, next: &BlobPlacement) -> bool {
    prev.runs == 1 && prev.first_page.0 + prev.pages == next.first_page.0
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

/// The shared query executor: index lookup, tile fetch, composition.
/// Operates on immutable metadata plus the internally-synchronized BLOB
/// store, so it needs no database lock — this is what lets a query run
/// fully concurrent with writers.
pub(crate) fn execute_range<S: PageStore>(
    blobs: &BlobStore<S>,
    executor: Option<&ThreadPool>,
    meta: &MddObject,
    region: &Domain,
    predicate: Option<&CellPredicate>,
) -> Result<(Array, QueryStats)> {
    let _span = tilestore_obs::tracer()
        .span_with("query", || format!("object={} region={region}", meta.name));
    let started = Instant::now();
    let search = meta.index.search(region);
    let mut result = Array::filled(region.clone(), &meta.mdd_type.cell.default)?;
    let mut stats = QueryStats {
        index_nodes: search.nodes_visited,
        ..QueryStats::default()
    };
    // Value-predicate pruning: drop every hit whose synopsis proves it
    // cannot hold a matching cell. A pruned tile is
    // equivalent to an all-default tile, and the result is pre-filled with
    // the default, so skipping it changes nothing.
    let mut hits = search.hits;
    if let Some(p) = predicate {
        let before = hits.len();
        hits.retain(|&pos| p.prune(meta, pos as usize).is_none());
        stats.tiles_pruned = (before - hits.len()) as u64;
    }
    let band_stats = fetch_tiles(
        blobs,
        executor,
        meta,
        region,
        &hits,
        predicate,
        result.bytes_mut(),
    )?;
    stats.merge(&band_stats);
    for &pos in &hits {
        stats.tiles_read += 1;
        stats.cells_processed += meta.tiles[pos as usize].domain.cells();
    }
    stats.cells_defaulted = region.cells() - stats.cells_copied;
    record_query(&mut stats, started);
    Ok((result, stats))
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

/// Tile composition: splits the query region (and the result byte buffer)
/// into disjoint contiguous bands along axis 0 — one per executor worker
/// plus the caller, or a single band when there is no executor or fewer
/// than two tiles — and runs the one band body per band through
/// [`scatter_on`], on the pool or inline. Each band fetches the tiles it
/// intersects into a reused scratch buffer, decodes them zero-copy where
/// the codec allows, and pastes the clipped region straight into its slice
/// of the result. Bands partition the region, so every result cell is
/// written by exactly one band; band boundaries snap to tile-row starts, so
/// with an aligned tiling no tile is fetched twice (a tile crossing a cut
/// that could not snap is fetched once per band it touches).
///
/// Each band fetches its tiles in the batches of [`read_batches`]: one
/// `read_pages` call per batch, so tiles the defragmenter laid on
/// consecutive pages coalesce into single positioned reads — even across
/// blob boundaries — and against a sharded buffer pool each batch is one
/// lock acquisition per shard touched (hits served under it, misses read
/// straight into the band's scratch buffer).
///
/// Returns the per-band statistics merged (saturating) into one
/// [`QueryStats`]; only the per-cell counters and `io` — the sum of the
/// counts each band's `read_batch` calls returned — are populated; the
/// caller owns tile counts and timing.
fn fetch_tiles<S: PageStore>(
    blobs: &BlobStore<S>,
    executor: Option<&ThreadPool>,
    meta: &MddObject,
    region: &Domain,
    hits: &[u64],
    predicate: Option<&CellPredicate>,
    out: &mut [u8],
) -> Result<QueryStats> {
    let cell_size = meta.cell_size();
    let rows = usize::try_from(region.extent(0)).map_err(|_| {
        EngineError::Catalog(format!("query region too large for this host: {region}"))
    })?;
    let slab = out.len() / rows; // bytes per axis-0 index
    let workers = executor.map_or(0, ThreadPool::workers);
    let bands = if hits.len() > 1 { workers + 1 } else { 1 }.min(rows);
    let lo0 = region.lo(0);
    let hi0 = lo0 + rows as i64;
    // Snap band boundaries to rows where a tile begins: a cut through
    // the middle of a tile makes both neighbouring bands read it, so
    // the ideal even split is adjusted to the nearest tile-row start.
    // With an aligned tiling this eliminates duplicate reads entirely.
    let mut tile_starts: Vec<i64> = hits
        .iter()
        .map(|&pos| meta.tiles[pos as usize].domain.lo(0))
        .filter(|&s| s > lo0 && s < hi0)
        .collect();
    tile_starts.sort_unstable();
    tile_starts.dedup();
    let mut cuts: Vec<i64> = vec![lo0];
    for b in 1..bands {
        let ideal = lo0 + (rows * b / bands) as i64;
        let snapped = tile_starts
            .iter()
            .copied()
            .min_by_key(|s| (s - ideal).abs())
            .unwrap_or(ideal);
        if snapped > *cuts.last().expect("cuts is non-empty") {
            cuts.push(snapped);
        }
    }
    cuts.push(hi0);
    let mut tasks: Vec<(Domain, &mut [u8])> = Vec::with_capacity(cuts.len() - 1);
    let mut rest = out;
    for w in cuts.windows(2) {
        let len = (w[1] - w[0]) as usize;
        let (head, tail) = rest.split_at_mut(len * slab);
        rest = tail;
        let band_range = tilestore_geometry::AxisRange::new(w[0], w[1] - 1)?;
        tasks.push((region.with_axis(0, band_range)?, head));
    }
    let ctx = CellContext {
        cell_size,
        default: &meta.mdd_type.cell.default,
    };
    // Pool workers run on their own threads: re-enter the caller's request
    // scope so per-band spans stay attributed to the request.
    let rid = tilestore_obs::current_request_id();
    let page_size = blobs.page_store().page_size();
    let bands = scatter_on(
        executor,
        tasks,
        |_, (band_dom, band_out)| -> Result<QueryStats> {
            let _req = tilestore_obs::request_scope(rid);
            let mut scratch = Vec::new();
            let mut masked = Vec::new();
            let mut band = QueryStats::default();
            let mut plan = Vec::new();
            for &pos in hits {
                let tile = &meta.tiles[pos as usize];
                let Some(overlap) = tile.domain.intersection(&band_dom) else {
                    continue;
                };
                plan.push(((tile, overlap), blobs.blob_placement(tile.blob)?));
            }
            for batch in read_batches(&mut plan, page_size) {
                let ids: Vec<BlobId> = plan[batch.clone()]
                    .iter()
                    .map(|((t, _), _)| t.blob)
                    .collect();
                let (ranges, io) = blobs.read_batch(&ids, &mut scratch)?;
                band.io += &io;
                for (((tile, overlap), _), &(off, len)) in plan[batch].iter().zip(&ranges) {
                    let payload =
                        tilestore_compress::decompress_view(&scratch[off..off + len], &ctx)
                            .map_err(|e| {
                                EngineError::Catalog(format!("tile decompression failed: {e}"))
                            })?;
                    let src: &[u8] = match predicate {
                        // Masked select: failing cells become the default
                        // before the band copy. The view may alias the shared
                        // scratch, so the rewrite goes through an owned buffer.
                        Some(p) => {
                            masked.clear();
                            masked.extend_from_slice(&payload);
                            p.mask_payload(&meta.mdd_type.cell, &mut masked)?;
                            &masked
                        }
                        None => &payload,
                    };
                    band.cells_copied +=
                        copy_region(&tile.domain, src, &band_dom, band_out, overlap, cell_size)?;
                }
            }
            Ok(band)
        },
    );
    let mut merged = QueryStats::default();
    for band in bands {
        merged.merge(&band?);
    }
    Ok(merged)
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
