//! The MDD storage manager: objects, inserts, queries, re-tiling.
//!
//! §5: "an MDD object is composed of a set of multidimensional tiles and an
//! index on tiles. Cells of each tile are stored in a separate BLOB. The
//! MDD object index stores the spatial information of the object tiles."
//!
//! [`Database`] owns a [`BlobStore`] over any [`PageStore`] (file-backed,
//! in-memory, or buffer-pooled) and an immutable, `Arc`-swapped catalog of
//! [`MddObject`]s (see [`crate::snapshot`]). Readers pin the catalog with
//! [`Database::begin_read`] and execute lock-free against that snapshot;
//! writers are serialized on an internal mutex, build the successor catalog
//! copy-on-write, and publish it with one short pointer swap. Inserts run
//! the object's tiling scheme (phase 1) and then materialize, store and
//! index the tiles (phase 2). Queries ask the R+-tree for the intersected
//! tiles, fetch each tile BLOB, and compose the result array, collecting
//! the `t_ix`/`t_o`/`t_cpu` counters of §6 along the way.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use tilestore_compress::{CellContext, CompressionPolicy};
use tilestore_exec::{scatter_on, ThreadPool};
use tilestore_geometry::{morton_centroid_key, Domain};
use tilestore_index::RPlusTree;
use tilestore_obs::AccessRecorder;
use tilestore_storage::{BlobId, BlobStore, IoStats, MemPageStore, PageStore, DEFAULT_PAGE_SIZE};
use tilestore_tiling::{
    AccessRecord, RetileSpec, Scheme, StatisticTiling, TilingSpec, TilingStrategy,
};

use crate::access::{AccessLog, AccessRegion};
use crate::array::Array;
use crate::builder::DatabaseBuilder;
use crate::error::{EngineError, Result};
use crate::mdd::{MddObject, MddType, TileMeta};
use crate::plan::Plan;
use crate::snapshot::{
    lock_recover, CatalogState, EpochTracker, ObjectEntry, QueryResult, Snapshot, WriteReceipt,
};
use crate::stats::{DefragStep, InsertStats, RetileStats};
use crate::synopsis::TileSynopsis;

/// Upper bound on the decoded bytes of the new tiles one retile band
/// holds, always at least one tile. A retile reads the old tiles that its
/// band overlaps with one plan, so an old tile that straddles two bands is
/// read once for each. On the paper's Table 1 cube, the pages read by the
/// retiles between `Reg32K`, `Reg256K`, `Dir32K2P` and `Dir64K3P` come to
/// at most 1.74x the stored pages with 1 MiB bands, 1.17x with 4 MiB and
/// 1.09x with 8 MiB; an object that fits in one band is read exactly once.
/// 4 MiB keeps the band's buffers small beside the pages it saves.
const RETILE_BAND_BYTES: u64 = 4 << 20;

/// A database of tiled MDD objects over a page store `S`.
///
/// Every method takes `&self`: readers go through epoch-stamped snapshots
/// ([`Database::begin_read`]) and never block behind writers; writers are
/// serialized internally and only exclude readers for the nanoseconds of
/// the catalog pointer swap.
///
/// ```
/// use tilestore_engine::{Array, CellType, Database, MddType};
/// use tilestore_geometry::{DefDomain, Domain};
/// use tilestore_tiling::{AlignedTiling, Scheme};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let db = Database::in_memory()?;
/// db.create_object(
///     "img",
///     MddType::new(CellType::of::<u8>(), DefDomain::unlimited(2)?),
///     Scheme::Aligned(AlignedTiling::regular(2, 4096)),
/// )?;
/// let domain: Domain = "[0:63,0:63]".parse()?;
/// db.insert("img", &Array::from_fn(domain, |p| (p[0] + p[1]) as u8)?)?;
///
/// // Queries execute against an epoch-stamped snapshot; a concurrent
/// // retile can commit mid-query without disturbing it.
/// let snap = db.begin_read();
/// let crop = snap.range_query("img", &"[8:15,8:15]".parse()?)?;
/// assert_eq!(crop.array.domain().cells(), 64);
/// assert!(crop.stats.tiles_read >= 1);
/// assert_eq!(crop.epoch, snap.epoch());
/// # Ok(())
/// # }
/// ```
pub struct Database<S: PageStore> {
    blobs: Arc<BlobStore<S>>,
    /// The current catalog. The mutex is held only for the `Arc` clone on
    /// read and the pointer swap on publish — never across I/O.
    catalog: Mutex<Arc<CatalogState>>,
    tracker: Arc<EpochTracker>,
    /// Serializes writers. Readers never touch it.
    writer: Mutex<()>,
    recorder: Mutex<Option<Arc<AccessRecorder>>>,
    /// Optional thread pool that insert/retile tile tasks scatter onto
    /// ([`Database::set_executor`]); without it the same task bodies run
    /// inline.
    executor: Mutex<Option<Arc<ThreadPool>>>,
    /// Compression policy applied to objects created without an explicit
    /// one (configured via [`DatabaseBuilder::compression`]).
    default_compression: CompressionPolicy,
    /// Epoch of the last durable catalog commit (0 before any commit);
    /// bumped by `save`, restored by the persistence layer on reopen.
    commit_epoch: AtomicU64,
}

impl Database<MemPageStore> {
    /// An in-memory database (tests, benchmarks excluding file I/O).
    ///
    /// # Errors
    /// Never in practice; page-size validation only.
    pub fn in_memory() -> Result<Self> {
        Ok(Database::with_store(MemPageStore::new(DEFAULT_PAGE_SIZE)?))
    }
}

impl<S: PageStore> Database<S> {
    /// A builder unifying construction ([`Database::in_memory`] /
    /// [`Database::with_store`] / `open_dir`) with the optional recorder,
    /// executor and default-compression settings.
    #[must_use]
    pub fn builder() -> DatabaseBuilder {
        DatabaseBuilder::new()
    }

    /// A database over an arbitrary page store (e.g. a
    /// [`tilestore_storage::FilePageStore`] or a
    /// [`tilestore_storage::BufferPool`]).
    #[must_use]
    pub fn with_store(store: S) -> Self {
        Database::from_blob_store(BlobStore::new(store))
    }

    /// A database over a pre-built BLOB store (catalog restore path).
    pub(crate) fn from_blob_store(blobs: BlobStore<S>) -> Self {
        Database {
            blobs: Arc::new(blobs),
            catalog: Mutex::new(Arc::new(CatalogState::empty(0))),
            tracker: Arc::new(EpochTracker::default()),
            writer: Mutex::new(()),
            recorder: Mutex::new(None),
            executor: Mutex::new(None),
            default_compression: CompressionPolicy::None,
            commit_epoch: AtomicU64::new(0),
        }
    }

    /// Epoch of the last durable catalog commit, 0 before any commit. Each
    /// successful `save` bumps it by one; reopening restores the persisted
    /// value, so a reopened database continues the sequence monotonically.
    /// Distinct from the snapshot epoch ([`Snapshot::epoch`]), which every
    /// in-memory writer commit advances.
    #[must_use]
    pub fn catalog_epoch(&self) -> u64 {
        self.commit_epoch.load(Ordering::Acquire)
    }

    /// Records a durable commit epoch (persistence layer only).
    pub(crate) fn set_catalog_epoch(&self, epoch: u64) {
        self.commit_epoch.store(epoch, Ordering::Release);
    }

    /// Seeds the snapshot epoch (catalog restore path): a reopened
    /// database continues the epoch sequence from the persisted value
    /// instead of restarting at zero.
    pub(crate) fn set_snapshot_epoch(&self, version: u64) {
        let mut guard = lock_recover(&self.catalog);
        *guard = Arc::new(CatalogState {
            version,
            objects: guard.objects.clone(),
        });
    }

    /// Sets the default compression policy for newly created objects
    /// (builder path).
    pub(crate) fn set_default_compression(&mut self, policy: CompressionPolicy) {
        self.default_compression = policy;
    }

    /// Attaches a persistent access recorder: every executed range query's
    /// intersected region is appended to its log, so re-tiling can later run
    /// from the real observed workload ([`Database::auto_retile_from_log`]).
    /// File-backed databases opened through the persistence layer get one
    /// automatically.
    pub fn set_recorder(&self, recorder: AccessRecorder) {
        *lock_recover(&self.recorder) = Some(Arc::new(recorder));
    }

    /// The attached access recorder, if any.
    #[must_use]
    pub fn recorder(&self) -> Option<Arc<AccessRecorder>> {
        lock_recover(&self.recorder).clone()
    }

    /// Attaches a thread pool: insert and retile then materialize and
    /// compress their tiles in parallel. Without an executor the same task
    /// bodies run inline on the calling thread. Reads never use it: a query
    /// runs its plan's batched reads on the calling thread.
    pub fn set_executor(&self, pool: Arc<ThreadPool>) {
        *lock_recover(&self.executor) = Some(pool);
    }

    /// The attached executor, if any.
    #[must_use]
    pub fn executor(&self) -> Option<Arc<ThreadPool>> {
        lock_recover(&self.executor).clone()
    }

    /// Reinstalls a persisted object (catalog restore path).
    pub(crate) fn restore_object(&self, meta: MddObject) {
        let mut guard = lock_recover(&self.catalog);
        let mut objects = guard.objects.clone();
        objects.insert(
            meta.name.clone(),
            ObjectEntry {
                meta: Arc::new(meta),
                log: Arc::new(AccessLog::new()),
            },
        );
        *guard = Arc::new(CatalogState {
            version: guard.version,
            objects,
        });
    }

    /// Database-wide running I/O totals of the underlying BLOB store, pool
    /// hits and misses included. A query's own counts are in its
    /// [`QueryResult::stats`].
    #[must_use]
    pub fn io_stats(&self) -> &IoStats {
        self.blobs.stats()
    }

    /// The underlying BLOB store (read-only access).
    #[must_use]
    pub fn blob_store(&self) -> &BlobStore<S> {
        &self.blobs
    }

    /// The current catalog (an `Arc` clone; the lock is held only for the
    /// clone).
    pub(crate) fn current_catalog(&self) -> Arc<CatalogState> {
        Arc::clone(&lock_recover(&self.catalog))
    }

    /// Takes the writer mutex (crate-internal: `save` serializes against
    /// writers with it).
    pub(crate) fn lock_writer(&self) -> MutexGuard<'_, ()> {
        lock_recover(&self.writer)
    }

    /// Ids of blobs retired by past writer commits but still readable by
    /// live snapshots; `save` excludes them from the exported directory.
    pub(crate) fn pending_retired_blobs(&self) -> BTreeSet<u64> {
        self.tracker.pending_blobs()
    }

    /// Number of read snapshots currently alive against this database.
    /// The cluster serving layer uses this as its snapshot-pinning surface:
    /// after a coordinator unpins (or a coordinator connection dies), a
    /// shard's count must return to its baseline — any other outcome is a
    /// leaked pin that would block blob reclamation forever.
    #[must_use]
    pub fn live_snapshots(&self) -> u64 {
        self.tracker.live_snapshots()
    }

    /// Begins a read session: pins the current catalog at its epoch and
    /// returns a [`Snapshot`] that queries it without ever taking a
    /// database-wide lock. Tiles visible to the snapshot stay readable —
    /// even across concurrent re-tiles and drops — until it is dropped.
    ///
    /// The epoch is registered with the tracker while the catalog lock is
    /// still held (lock order: catalog, then tracker). A writer swaps the
    /// catalog under that lock and retires the blobs it unreferenced only
    /// after releasing it. So either this snapshot pinned the old catalog
    /// and is live when the writer retires, which defers the deletion, or
    /// it pinned the new catalog, which no longer references those blobs.
    /// Registering after the lock is released leaves a gap in which a
    /// retile deletes blobs the new snapshot is about to read.
    #[must_use]
    pub fn begin_read(&self) -> Snapshot<S> {
        let catalog = {
            let guard = lock_recover(&self.catalog);
            self.tracker.acquire(guard.version);
            Arc::clone(&guard)
        };
        tilestore_obs::hot().snapshots_active.add(1);
        Snapshot {
            catalog,
            blobs: Arc::clone(&self.blobs),
            tracker: Arc::clone(&self.tracker),
            recorder: self.recorder(),
            request: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Publishes a successor catalog, returning its epoch. The catalog
    /// mutex is held only for the swap itself; the time inside it is
    /// recorded to the `engine.writer_swap_ns` histogram — that interval
    /// is the *only* wait a writer can ever impose on readers.
    pub(crate) fn swap_catalog(&self, objects: BTreeMap<String, ObjectEntry>) -> u64 {
        let started = Instant::now();
        let mut guard = lock_recover(&self.catalog);
        let version = guard.version + 1;
        *guard = Arc::new(CatalogState { version, objects });
        drop(guard);
        tilestore_obs::hot()
            .writer_swap_ns
            .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        version
    }

    /// Hands blobs unreferenced since `epoch` to the tracker and deletes
    /// whatever is already reclaimable (pages go to the PR-3 quarantine,
    /// becoming reusable at the next durable commit).
    pub(crate) fn retire_blobs(&self, epoch: u64, retired: Vec<BlobId>) {
        for id in self.tracker.retire(epoch, retired) {
            let _ = self.blobs.delete(id);
        }
    }

    /// An empty staging list for the blobs of one write (see
    /// [`StagedBlobs`]).
    pub(crate) fn stage(&self) -> StagedBlobs<'_, S> {
        StagedBlobs {
            blobs: &self.blobs,
            ids: Mutex::new(Vec::new()),
        }
    }

    /// Installs a new version of one object into a successor catalog and
    /// publishes it; `staged` holds the blobs written for the new version,
    /// which it now references, and `retired` lists the blobs the old
    /// version referenced and the new one does not. Returns the new epoch.
    pub(crate) fn install_object(
        &self,
        current: &CatalogState,
        name: &str,
        meta: MddObject,
        staged: StagedBlobs<'_, S>,
        retired: Vec<BlobId>,
    ) -> u64 {
        let mut objects = current.objects.clone();
        let log = objects
            .get(name)
            .map(|e| Arc::clone(&e.log))
            .unwrap_or_else(|| Arc::new(AccessLog::new()));
        objects.insert(
            name.to_string(),
            ObjectEntry {
                meta: Arc::new(meta),
                log,
            },
        );
        let epoch = self.swap_catalog(objects);
        staged.publish();
        self.retire_blobs(epoch, retired);
        epoch
    }

    /// Names of all stored objects.
    #[must_use]
    pub fn object_names(&self) -> Vec<String> {
        self.current_catalog().objects.keys().cloned().collect()
    }

    /// Metadata of one object (as of the current catalog).
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`].
    pub fn object(&self, name: &str) -> Result<Arc<MddObject>> {
        self.current_catalog()
            .entry(name)
            .map(|e| Arc::clone(&e.meta))
    }

    /// The access log of one object.
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`].
    pub fn access_log(&self, name: &str) -> Result<Arc<AccessLog>> {
        self.current_catalog()
            .entry(name)
            .map(|e| Arc::clone(&e.log))
    }

    /// Sets the per-tile compression policy of an object. Applies to tiles
    /// written afterwards (inserts and re-tiles); already-stored tiles keep
    /// their framing and remain readable — call [`Database::retile`] with
    /// the current scheme to rewrite them under the new policy.
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`].
    pub fn set_compression(&self, name: &str, policy: CompressionPolicy) -> Result<()> {
        let _w = self.lock_writer();
        let cat = self.current_catalog();
        let entry = cat.entry(name)?;
        let mut meta = (*entry.meta).clone();
        meta.compression = policy;
        self.install_object(&cat, name, meta, self.stage(), Vec::new());
        Ok(())
    }

    /// Physical bytes the object's tiles occupy in the BLOB store (after
    /// compression); compare with [`MddObject::stored_bytes`] for the
    /// logical size.
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`]; storage errors.
    pub fn object_physical_bytes(&self, name: &str) -> Result<u64> {
        let meta = self.object(name)?;
        let mut total = 0u64;
        for tile in &meta.tiles {
            total += self.blobs.blob_len(tile.blob)?;
        }
        Ok(total)
    }

    /// Creates an empty MDD object.
    ///
    /// # Errors
    /// [`EngineError::ObjectExists`] for duplicate names;
    /// [`EngineError::Index`] for inconsistent dimensionality.
    pub fn create_object(&self, name: &str, mdd_type: MddType, scheme: Scheme) -> Result<()> {
        let _w = self.lock_writer();
        let cat = self.current_catalog();
        if cat.objects.contains_key(name) {
            return Err(EngineError::ObjectExists(name.to_string()));
        }
        let index = RPlusTree::new(mdd_type.dim())?;
        let meta = MddObject {
            name: name.to_string(),
            mdd_type,
            scheme,
            compression: self.default_compression.clone(),
            tiles: Vec::new(),
            index,
            current_domain: None,
        };
        self.install_object(&cat, name, meta, self.stage(), Vec::new());
        Ok(())
    }

    /// Drops an object. Its BLOBs are retired: deleted immediately when no
    /// snapshot is live, otherwise when the last snapshot that can still
    /// read them drops.
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`].
    pub fn drop_object(&self, name: &str) -> Result<()> {
        let _w = self.lock_writer();
        let cat = self.current_catalog();
        let entry = cat.entry(name)?;
        let retired: Vec<BlobId> = entry.meta.tiles.iter().map(|t| t.blob).collect();
        let mut objects = cat.objects.clone();
        objects.remove(name);
        let epoch = self.swap_catalog(objects);
        self.retire_blobs(epoch, retired);
        Ok(())
    }

    /// Inserts (part of) an array into an object.
    ///
    /// The array's domain is tiled by the object's scheme, each tile's cells
    /// are copied together, stored as a BLOB and indexed (§5.2's two
    /// phases). The current domain grows by closure with the array's domain
    /// (§4). For gradual growth the new data must not overlap cells already
    /// stored — tiles are disjoint by definition.
    ///
    /// # Errors
    /// Type/domain validation errors, tiling errors and storage errors.
    pub fn insert(&self, name: &str, array: &Array) -> Result<WriteReceipt<InsertStats>> {
        let _span = tilestore_obs::tracer().span_with("insert", || {
            format!("object={name} domain={}", array.domain())
        });
        let started = Instant::now();
        let _w = self.lock_writer();
        let cat = self.current_catalog();
        let entry = cat.entry(name)?;
        let meta = &entry.meta;
        let cell_size = meta.cell_size();
        if array.cell_size() != cell_size {
            return Err(EngineError::CellSizeMismatch {
                expected: cell_size,
                got: array.cell_size(),
            });
        }
        if !meta.mdd_type.definition.admits(array.domain()) {
            return Err(EngineError::OutsideDefinitionDomain {
                domain: array.domain().to_string(),
                definition: meta.mdd_type.definition.to_string(),
            });
        }
        if !meta.index.search(array.domain()).hits.is_empty() {
            return Err(EngineError::OverlapsExistingTiles {
                domain: array.domain().to_string(),
            });
        }

        // Phase 1: the tiling specification.
        let spec = meta.scheme.partition(array.domain(), cell_size)?;

        // Phase 2: materialize, store and index the tiles. Extraction +
        // compression + BLOB writes are one task per tile, scattered across
        // the executor when one is attached; the catalog update below is a
        // single swap either way. A failure anywhere before it drops
        // `staged`, which deletes every BLOB the statement already wrote.
        let mut stats = InsertStats::default();
        let staged = self.stage();
        let created = scatter_on(
            self.executor().as_deref(),
            spec.tiles().to_vec(),
            |_, tile_domain| -> Result<(Domain, BlobId, TileSynopsis, u64)> {
                let tile = array.extract(&tile_domain)?;
                let (blob, synopsis, len) = staged.encode(meta, tile.bytes())?;
                Ok((tile_domain, blob, synopsis, len))
            },
        );
        let mut new_meta = (**meta).clone();
        for created in created {
            let (tile_domain, blob, synopsis, len) = created?;
            let pos = new_meta.tiles.len() as u64;
            new_meta.tiles.push(TileMeta {
                domain: tile_domain.clone(),
                blob,
                synopsis: Some(synopsis),
            });
            new_meta.index.insert(tile_domain, pos)?;
            stats.tiles_created += 1;
            stats.bytes_written += len;
            stats.pages_written += self.blobs.pages_for(len);
        }

        new_meta.current_domain = Some(match new_meta.current_domain.take() {
            Some(cur) => cur.hull(array.domain())?,
            None => array.domain().clone(),
        });
        let epoch = self.install_object(&cat, name, new_meta, staged, Vec::new());
        stats.elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Ok(WriteReceipt { stats, epoch })
    }

    /// Executes a range query (§5.1 type (b)) against a fresh snapshot:
    /// returns the sub-array over `region` (uncovered cells holding the
    /// type's default value), the execution counters, and the observed
    /// epoch. Shorthand for `begin_read().range_query(..)`.
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`], domain validation errors, storage
    /// errors.
    pub fn range_query(&self, name: &str, region: &Domain) -> Result<QueryResult> {
        self.begin_read().range_query(name, region)
    }

    /// Executes a predicate-masked range query against a fresh snapshot.
    /// Shorthand for `begin_read().range_query_where(..)`.
    ///
    /// # Errors
    /// See [`crate::Snapshot::range_query_where`].
    pub fn range_query_where(
        &self,
        name: &str,
        region: &Domain,
        predicate: Option<&crate::CellPredicate>,
    ) -> Result<QueryResult> {
        self.begin_read().range_query_where(name, region, predicate)
    }

    /// Executes any §5.1 access against a fresh snapshot. Sections (type
    /// (d)) come back with the fixed axes dropped from the result's
    /// dimensionality.
    ///
    /// # Errors
    /// [`EngineError::EmptyObject`] when the object holds no cells (the
    /// access cannot be resolved against a current domain), plus the errors
    /// of [`Database::range_query`].
    pub fn query(&self, name: &str, access: &AccessRegion) -> Result<QueryResult> {
        self.begin_read().query(name, access)
    }

    /// Replaces an object's tiling with a new scheme, rewriting the tiles.
    ///
    /// New tiles are materialized from the old ones; new-tiling tiles that
    /// intersect no stored data remain unmaterialized, preserving partial
    /// coverage (a new tile partially covering old data stores default
    /// values for the uncovered cells it spans). Queries running against a
    /// snapshot taken before the retile keep reading the *old* tiles; the
    /// old BLOBs are reclaimed when the last such snapshot drops.
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`], [`EngineError::EmptyObject`],
    /// tiling and storage errors.
    pub fn retile(&self, name: &str, scheme: Scheme) -> Result<WriteReceipt<RetileStats>> {
        let _span = tilestore_obs::tracer().span_with("retile", || format!("object={name}"));
        let started = Instant::now();
        let _w = self.lock_writer();
        let cat = self.current_catalog();
        let meta = Arc::clone(&cat.entry(name)?.meta);
        let current = meta
            .current_domain
            .clone()
            .ok_or_else(|| EngineError::EmptyObject(name.to_string()))?;
        let cell_size = meta.cell_size();
        let spec: TilingSpec = scheme.partition(&current, cell_size)?;

        let mut stats = RetileStats {
            tiles_before: meta.tiles.len() as u64,
            ..RetileStats::default()
        };
        // Every band's reads carry the page total of the whole retile, so
        // the buffer pool admits the retile as one scan.
        let total_pages = meta
            .tiles
            .iter()
            .map(|t| Ok(self.blobs.blob_placement(t.blob)?.pages as usize))
            .sum::<Result<usize>>()?;
        let executor = self.executor();
        let staged = self.stage();
        let mut new_tiles: Vec<TileMeta> = Vec::with_capacity(spec.len());
        let tile_bytes = |t: &Domain| t.cells() * cell_size as u64;
        let mut rest = spec.tiles();
        while !rest.is_empty() {
            // The next band: new tiles in spec order, up to the byte cap.
            let mut bytes = 0;
            let len = rest
                .iter()
                .take_while(|t| {
                    bytes += tile_bytes(t);
                    bytes <= RETILE_BAND_BYTES
                })
                .count()
                .max(1);
            let (band, next) = rest.split_at(len);
            rest = next;
            // The band tiles that overlap old tiles, filled with the
            // default, and the overlapping (old tile, band tile) pairs by old
            // tile. A band tile that overlaps no old tile stays uncovered.
            let mut cells = Vec::new();
            let mut pairs = Vec::new();
            for to in band {
                let hits = meta.index.search(to).hits;
                if !hits.is_empty() {
                    pairs.extend(hits.into_iter().map(|pos| (pos, cells.len())));
                    cells.push((to, Array::filled(to.clone(), &meta.mdd_type.cell.default)?));
                }
            }
            pairs.sort_unstable();
            let mut old: Vec<u64> = pairs.iter().map(|&(pos, _)| pos).collect();
            old.dedup();
            // One plan reads each old tile once and pastes it into every
            // band tile it overlaps.
            let plan = Plan::over_tiles(&self.blobs, &meta, &current, old, total_pages)?;
            plan.fetch(&self.blobs, |pos, old_cells| {
                let from = &meta.tiles[pos as usize].domain;
                let first = pairs.partition_point(|&(p, _)| p < pos);
                for &(_, k) in pairs[first..].iter().take_while(|&&(p, _)| p == pos) {
                    let (to, tile) = &mut cells[k];
                    if let Some(overlap) = from.intersection(to) {
                        old_cells.paste(from, to, tile.bytes_mut(), &overlap, cell_size)?;
                    }
                }
                Ok(())
            })?;
            // Encode and stage the band's tiles, scattered across the
            // executor when one is attached, in spec order when not.
            let encoded = scatter_on(
                executor.as_deref(),
                cells,
                |_, (to, tile)| -> Result<TileMeta> {
                    let (blob, synopsis, _) = staged.encode(&meta, tile.bytes())?;
                    Ok(TileMeta {
                        domain: to.clone(),
                        blob,
                        synopsis: Some(synopsis),
                    })
                },
            );
            for tile in encoded {
                new_tiles.push(tile?);
            }
        }
        stats.bytes_rewritten = new_tiles.iter().map(|t| tile_bytes(&t.domain)).sum();
        // Build the successor object: new tiles, rebuilt index, new scheme.
        // The old tiles are retired, not deleted — live snapshots keep
        // reading them.
        let entries: Vec<(Domain, u64)> = new_tiles
            .iter()
            .enumerate()
            .map(|(i, t)| (t.domain.clone(), i as u64))
            .collect();
        let mut new_meta = (*meta).clone();
        new_meta.index = RPlusTree::bulk_load(
            new_meta.mdd_type.dim(),
            tilestore_index::DEFAULT_FANOUT,
            entries,
        )?;
        stats.tiles_after = new_tiles.len() as u64;
        new_meta.tiles = new_tiles;
        new_meta.scheme = scheme;
        let retired: Vec<BlobId> = meta.tiles.iter().map(|t| t.blob).collect();
        let epoch = self.install_object(&cat, name, new_meta, staged, retired);
        stats.elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Ok(WriteReceipt { stats, epoch })
    }

    /// Rewrites an object's tile BLOBs onto physically contiguous pages in
    /// Z-order of their bounding-box centroids, without changing the tiling
    /// or any cell. Tile payloads are copied byte-for-byte (no decompress/
    /// recompress), so every object remains bit-identical; only the
    /// directory's page mapping changes. After a defrag, a range query's
    /// curve-adjacent tiles sit on consecutive pages and the batch read
    /// path coalesces them into single positioned reads.
    ///
    /// One atomic commit: live snapshots keep reading the old placement,
    /// and the displaced blobs are quarantined and reclaimed through the
    /// usual epoch-deferred path. Already-defragmented objects commit
    /// nothing and return the current epoch. Same as
    /// [`Database::defrag_paced`] with no budget.
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`], [`EngineError::EmptyObject`],
    /// storage errors.
    pub fn defrag(&self, name: &str) -> Result<WriteReceipt<RetileStats>> {
        self.defrag_paced(name, None)
    }

    /// [`Database::defrag`] in commits of at most `budget_bytes` each
    /// (`None`: one commit): runs [`Database::defrag_step`] until no tile is
    /// left out of curve order and folds the steps into one
    /// [`RetileStats`]. The writer lock is released between steps. The
    /// CLI, the server and the cluster coordinator run every
    /// `--defrag[:<budgetKB>]` through here.
    ///
    /// # Errors
    /// The errors of [`Database::defrag_step`].
    pub fn defrag_paced(
        &self,
        name: &str,
        budget_bytes: Option<u64>,
    ) -> Result<WriteReceipt<RetileStats>> {
        let _span = tilestore_obs::tracer().span_with("defrag", || format!("object={name}"));
        let started = Instant::now();
        let tiles = self.object(name)?.tiles.len() as u64;
        let mut stats = RetileStats {
            tiles_before: tiles,
            tiles_after: tiles,
            ..RetileStats::default()
        };
        loop {
            let step = self.defrag_step(name, budget_bytes.unwrap_or(u64::MAX))?;
            stats.bytes_rewritten += step.bytes_moved;
            if step.tiles_remaining == 0 {
                stats.elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                return Ok(WriteReceipt {
                    stats,
                    epoch: step.epoch,
                });
            }
        }
    }

    /// One budget-paced step of [`Database::defrag`]: rewrites at most
    /// `budget_bytes` worth of tiles (always at least two, so tiny budgets
    /// still converge) and commits, so background compaction never holds
    /// the writer lock or doubles disk usage for longer than one step.
    ///
    /// Steps are resumable without side state: each step finds the longest
    /// curve-order prefix already contiguous at the allocation frontier and
    /// extends it. `tiles_remaining == 0` in the returned stats means the
    /// object is fully defragmented.
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`], [`EngineError::EmptyObject`],
    /// storage errors.
    pub fn defrag_step(&self, name: &str, budget_bytes: u64) -> Result<WriteReceipt<DefragStep>> {
        let _span = tilestore_obs::tracer().span_with("defrag_step", || format!("object={name}"));
        let started = Instant::now();
        let _w = self.lock_writer();
        let cat = self.current_catalog();
        let meta = Arc::clone(&cat.entry(name)?.meta);
        meta.current_domain
            .as_ref()
            .ok_or_else(|| EngineError::EmptyObject(name.to_string()))?;
        let order = curve_order(&meta.tiles);
        let n = order.len();
        let chain = self.contiguous_prefix(&meta.tiles, &order)?;
        let mut stats = DefragStep::default();
        if chain == n {
            stats.elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            return Ok(WriteReceipt {
                stats,
                epoch: cat.version,
            });
        }
        // Resume after the already-contiguous prefix only when it ends at
        // the allocation frontier — only there can the next contiguous
        // create extend it. Otherwise (first step, or another writer
        // allocated in between) start over from the curve origin.
        let start = if chain > 0 {
            let last = self
                .blobs
                .blob_placement(meta.tiles[order[chain - 1]].blob)?;
            if last.first_page.0 + last.pages == self.blobs.page_store().allocated() {
                chain
            } else {
                0
            }
        } else {
            0
        };
        // The step's tiles in curve order: at least two, then as many as
        // the budget allows.
        let mut end = start;
        let mut retired = Vec::new();
        while end < n && (retired.len() < 2 || stats.bytes_moved < budget_bytes) {
            let blob = meta.tiles[order[end]].blob;
            stats.bytes_moved += self.blobs.blob_len(blob)?;
            retired.push(blob);
            end += 1;
        }
        stats.tiles_moved = retired.len() as u64;
        // One read of the step's blobs, which the buffer pool admits as one
        // statement of all their pages; each stream is copied byte for byte
        // from its frames onto contiguous pages, without a decode.
        let mut frames = Vec::new();
        let (spans, _) = self.blobs.read_batch(&retired, &mut frames, 0)?;
        let mut new_meta = (*meta).clone();
        let staged = self.stage();
        let mut stream = Vec::new();
        for (&pos, span) in order[start..end].iter().zip(&spans) {
            stream.clear();
            for frame in &frames[span.frames.clone()] {
                stream.extend_from_slice(frame);
            }
            stream.truncate(span.len);
            new_meta.tiles[pos].blob = staged.create_contiguous(&stream)?;
        }
        stats.tiles_remaining = (n - end) as u64;
        let epoch = self.install_object(&cat, name, new_meta, staged, retired);
        stats.elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Ok(WriteReceipt { stats, epoch })
    }

    /// Longest prefix of `order` whose blobs are each physically contiguous
    /// and laid end-to-end in curve order — already-defragmented tiles a
    /// compaction step can skip.
    fn contiguous_prefix(&self, tiles: &[TileMeta], order: &[usize]) -> Result<usize> {
        let mut prev_end: Option<u64> = None;
        for (k, &pos) in order.iter().enumerate() {
            let p = self.blobs.blob_placement(tiles[pos].blob)?;
            if p.runs != 1 || prev_end.is_some_and(|e| e != p.first_page.0) {
                return Ok(k);
            }
            prev_end = Some(p.first_page.0 + p.pages);
        }
        Ok(order.len())
    }

    /// Automatic tiling based on access statistics (§5.2): derives a
    /// [`StatisticTiling`] from the object's access log and re-tiles.
    ///
    /// # Errors
    /// The errors of [`Database::retile`].
    pub fn auto_retile(
        &self,
        name: &str,
        distance_threshold: u64,
        frequency_threshold: u64,
        max_tile_size: u64,
    ) -> Result<WriteReceipt<RetileStats>> {
        let records = self.access_log(name)?.to_records();
        let scheme = Scheme::Statistic(StatisticTiling::new(
            records,
            distance_threshold,
            frequency_threshold,
            max_tile_size,
        ));
        self.retile(name, scheme)
    }

    /// Like [`Database::auto_retile`], but driven by the *persistent* access
    /// log of the attached [`AccessRecorder`] — the observe → re-tile loop
    /// of §5.4 closed over real recorded history (it survives reopening the
    /// database, unlike the in-process log). Malformed log lines are skipped.
    ///
    /// # Errors
    /// [`EngineError::NoAccessRecorder`] when no recorder is attached;
    /// otherwise the errors of [`Database::retile`].
    pub fn auto_retile_from_log(
        &self,
        name: &str,
        distance_threshold: u64,
        frequency_threshold: u64,
        max_tile_size: u64,
    ) -> Result<WriteReceipt<RetileStats>> {
        self.object(name)?; // surface UnknownObject before recorder errors
        let recorder = self.recorder().ok_or(EngineError::NoAccessRecorder)?;
        let records: Vec<AccessRecord> = recorder
            .entries_for(name)
            .map_err(|e| EngineError::Catalog(format!("reading access log: {e}")))?
            .into_iter()
            .filter_map(|e| {
                e.region
                    .parse::<Domain>()
                    .ok()
                    .map(|region| AccessRecord::new(region, e.count))
            })
            .collect();
        let scheme = Scheme::Statistic(StatisticTiling::new(
            records,
            distance_threshold,
            frequency_threshold,
            max_tile_size,
        ));
        self.retile(name, scheme)
    }

    /// Applies one parsed retile request of the shared
    /// [`tilestore_tiling::RETILE_USAGE`] grammar: a paced defrag, a
    /// statistic re-tile from the recorded log, or a re-tile to a scheme
    /// spec parsed against the object's dimensionality. The CLI, the
    /// server and the cluster coordinator's local shards all retile
    /// through here.
    ///
    /// # Errors
    /// [`EngineError::BadSpec`] for a scheme spec that does not parse;
    /// otherwise the errors of the operation the spec names.
    pub fn retile_spec(&self, name: &str, spec: &RetileSpec) -> Result<WriteReceipt<RetileStats>> {
        match spec {
            RetileSpec::Defrag { budget_bytes } => self.defrag_paced(name, *budget_bytes),
            RetileSpec::FromLog {
                distance,
                frequency,
                max_tile_bytes,
            } => self.auto_retile_from_log(name, *distance, *frequency, *max_tile_bytes),
            RetileSpec::Scheme(spec) => {
                let dim = self.object(name)?.mdd_type.dim();
                let scheme =
                    tilestore_tiling::parse_scheme_spec(spec, dim).map_err(EngineError::BadSpec)?;
                self.retile(name, scheme)
            }
        }
    }
}

/// Blobs one write has created for an object version it has not yet
/// published. [`Database::install_object`] hands them to the catalog;
/// dropped unpublished (the write failed part-way), the list deletes
/// them. So the directory never holds a blob no tile references, and a
/// failed write leaks nothing the next `save` could make durable.
pub(crate) struct StagedBlobs<'a, S: PageStore> {
    blobs: &'a BlobStore<S>,
    ids: Mutex<Vec<BlobId>>,
}

impl<S: PageStore> StagedBlobs<'_, S> {
    /// Encodes one tile's `cells` under `object`'s compression policy,
    /// derives the tile's synopsis from the encoder's scan of the same
    /// bytes, and stages the stream as a new blob. Every write that
    /// produces a tile encodes it here. Returns the blob, the synopsis and
    /// the stream's length.
    pub(crate) fn encode(
        &self,
        object: &MddObject,
        cells: &[u8],
    ) -> Result<(BlobId, TileSynopsis, u64)> {
        let ctx = CellContext {
            cell_size: object.cell_size(),
            default: &object.mdd_type.cell.default,
        };
        let (stream, scan) =
            tilestore_compress::compress_with_scan(&object.compression, cells, &ctx)
                .map_err(|e| EngineError::Catalog(format!("compression failed: {e}")))?;
        let synopsis = TileSynopsis::from_scan(&object.mdd_type.cell, cells, scan);
        let id = self.blobs.create(&stream)?;
        lock_recover(&self.ids).push(id);
        Ok((id, synopsis, stream.len() as u64))
    }

    /// [`BlobStore::create_contiguous`], staged.
    pub(crate) fn create_contiguous(&self, data: &[u8]) -> Result<BlobId> {
        let id = self.blobs.create_contiguous(data)?;
        lock_recover(&self.ids).push(id);
        Ok(id)
    }

    /// The catalog now references every staged blob: keep them.
    fn publish(self) {
        lock_recover(&self.ids).clear();
    }
}

impl<S: PageStore> Drop for StagedBlobs<'_, S> {
    fn drop(&mut self) {
        for id in lock_recover(&self.ids).drain(..) {
            let _ = self.blobs.delete(id);
        }
    }
}

/// Tile positions sorted by the Morton key of each tile's bounding-box
/// centroid, relative to the hull of all tiles — the physical placement
/// order the defragmenter writes.
fn curve_order(tiles: &[TileMeta]) -> Vec<usize> {
    let Some(first) = tiles.first() else {
        return Vec::new();
    };
    let hull = tiles.iter().skip(1).fold(first.domain.clone(), |acc, t| {
        acc.hull(&t.domain).expect("uniform dimensionality")
    });
    let origin = hull.lowest();
    let mut order: Vec<usize> = (0..tiles.len()).collect();
    order.sort_by_key(|&i| morton_centroid_key(&tiles[i].domain, &origin));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilestore_geometry::Point;
    use tilestore_tiling::AlignedTiling;

    use crate::celltype::CellType;

    fn d(s: &str) -> Domain {
        s.parse().unwrap()
    }

    fn u32_type(def: &str) -> MddType {
        MddType::new(CellType::of::<u32>(), def.parse().unwrap())
    }

    fn fresh_db_with_object(scheme: Scheme) -> Database<MemPageStore> {
        let db = Database::in_memory().unwrap();
        db.create_object("obj", u32_type("[0:*,0:*]"), scheme)
            .unwrap();
        db
    }

    fn checkerboard(dom: &str) -> Array {
        Array::from_fn(d(dom), |p| (p[0] * 1000 + p[1]) as u32).unwrap()
    }

    #[test]
    fn insert_then_query_round_trips() {
        let db = fresh_db_with_object(Scheme::Aligned(AlignedTiling::regular(2, 4096)));
        let data = checkerboard("[0:99,0:99]");
        let ins = db.insert("obj", &data).unwrap();
        assert!(ins.tiles_created > 1);

        let q = db.range_query("obj", &d("[10:20,30:45]")).unwrap();
        assert_eq!(q.array.domain(), &d("[10:20,30:45]"));
        assert_eq!(
            q.array.get::<u32>(&Point::from_slice(&[15, 40])).unwrap(),
            15040
        );
        assert!(q.stats.tiles_read >= 1);
        assert_eq!(q.stats.cells_copied, 11 * 16);
        assert_eq!(q.stats.cells_defaulted, 0);
        assert!(q.stats.io.pages_read > 0);
        assert!(q.stats.index_nodes >= 1);
        assert_eq!(q.epoch, ins.epoch, "no writer ran in between");
    }

    #[test]
    fn whole_query_reproduces_input() {
        let db = fresh_db_with_object(Scheme::Aligned(AlignedTiling::regular(2, 1024)));
        let data = checkerboard("[0:19,0:19]");
        db.insert("obj", &data).unwrap();
        let q = db.query("obj", &AccessRegion::Whole).unwrap();
        assert_eq!(q.array, data);
    }

    #[test]
    fn uncovered_cells_read_default() {
        let db = Database::in_memory().unwrap();
        let cell = CellType::with_default("u32", 7u32.to_le_bytes().to_vec());
        db.create_object(
            "obj",
            MddType::new(cell, "[0:*,0:*]".parse().unwrap()),
            Scheme::Aligned(AlignedTiling::regular(2, 4096)),
        )
        .unwrap();
        db.insert("obj", &checkerboard("[0:9,0:9]")).unwrap();
        // Query beyond the covered area: outside cells get the default 7.
        let q = db.range_query("obj", &d("[5:14,0:9]")).unwrap();
        assert_eq!(
            q.array.get::<u32>(&Point::from_slice(&[9, 9])).unwrap(),
            9009
        );
        assert_eq!(q.array.get::<u32>(&Point::from_slice(&[12, 3])).unwrap(), 7);
        assert_eq!(q.stats.cells_defaulted, 50);
    }

    #[test]
    fn gradual_growth_updates_current_domain_by_closure() {
        let db = fresh_db_with_object(Scheme::Aligned(AlignedTiling::regular(2, 4096)));
        db.insert("obj", &checkerboard("[0:9,0:9]")).unwrap();
        assert_eq!(
            db.object("obj").unwrap().current_domain,
            Some(d("[0:9,0:9]"))
        );
        db.insert("obj", &checkerboard("[20:29,0:9]")).unwrap();
        // Closure: minimal interval containing both (§4).
        assert_eq!(
            db.object("obj").unwrap().current_domain,
            Some(d("[0:29,0:9]"))
        );
        // The gap [10:19] stays uncovered and reads as default (0).
        let q = db.range_query("obj", &d("[10:19,0:9]")).unwrap();
        assert!(q.array.to_cells::<u32>().unwrap().iter().all(|&c| c == 0));
    }

    #[test]
    fn overlapping_insert_rejected() {
        let db = fresh_db_with_object(Scheme::Aligned(AlignedTiling::regular(2, 4096)));
        db.insert("obj", &checkerboard("[0:9,0:9]")).unwrap();
        let err = db.insert("obj", &checkerboard("[5:14,5:14]")).unwrap_err();
        assert!(matches!(err, EngineError::OverlapsExistingTiles { .. }));
    }

    #[test]
    fn definition_domain_enforced() {
        let db = Database::in_memory().unwrap();
        db.create_object("bounded", u32_type("[0:9,0:9]"), Scheme::default_for(2))
            .unwrap();
        let err = db
            .insert("bounded", &checkerboard("[0:9,0:15]"))
            .unwrap_err();
        assert!(matches!(err, EngineError::OutsideDefinitionDomain { .. }));
        assert!(db.range_query("bounded", &d("[0:9,0:15]")).is_err());
    }

    #[test]
    fn section_query_drops_fixed_axes() {
        let db = Database::in_memory().unwrap();
        db.create_object("vol", u32_type("[0:*,0:*,0:*]"), Scheme::default_for(3))
            .unwrap();
        let data = Array::from_fn(d("[0:4,0:4,0:4]"), |p| {
            (p[0] * 100 + p[1] * 10 + p[2]) as u32
        })
        .unwrap();
        db.insert("vol", &data).unwrap();
        let q = db
            .query("vol", &AccessRegion::Section(vec![None, Some(3), None]))
            .unwrap();
        assert_eq!(q.array.domain(), &d("[0:4,0:4]"));
        assert_eq!(
            q.array.get::<u32>(&Point::from_slice(&[2, 4])).unwrap(),
            234
        );
    }

    #[test]
    fn queries_are_logged_for_statistic_tiling() {
        let db = fresh_db_with_object(Scheme::Aligned(AlignedTiling::regular(2, 1024)));
        db.insert("obj", &checkerboard("[0:49,0:49]")).unwrap();
        for _ in 0..5 {
            db.range_query("obj", &d("[0:9,0:9]")).unwrap();
        }
        db.range_query("obj", &d("[40:49,40:49]")).unwrap();
        let log = db.access_log("obj").unwrap();
        assert_eq!(log.total_accesses(), 6);
        assert_eq!(log.distinct_regions(), 2);
    }

    #[test]
    fn auto_retile_adapts_to_hot_region() {
        let db = fresh_db_with_object(Scheme::Aligned(AlignedTiling::regular(2, 4096)));
        let data = checkerboard("[0:99,0:99]");
        db.insert("obj", &data).unwrap();
        let hot = d("[10:29,10:29]");
        for _ in 0..10 {
            db.range_query("obj", &hot).unwrap();
        }
        let stats = db.auto_retile("obj", 0, 5, 64 * 1024).unwrap();
        assert!(stats.tiles_after > 0);
        // After adaptation the hot query reads exactly its own bytes.
        let q = db.range_query("obj", &hot).unwrap();
        assert_eq!(q.array, data.extract(&hot).unwrap());
        assert_eq!(q.stats.cells_processed, hot.cells());
        // Full content still correct.
        let all = db.range_query("obj", &d("[0:99,0:99]")).unwrap();
        assert_eq!(all.array, data);
    }

    #[test]
    fn executor_paths_match_serial_results() {
        let data = checkerboard("[0:59,0:59]");
        let serial = fresh_db_with_object(Scheme::Aligned(AlignedTiling::regular(2, 1024)));
        serial.insert("obj", &data).unwrap();
        let parallel = fresh_db_with_object(Scheme::Aligned(AlignedTiling::regular(2, 1024)));
        parallel.set_executor(Arc::new(ThreadPool::new(3)));
        parallel.insert("obj", &data).unwrap();

        let region = d("[5:42,7:55]");
        let a = serial.range_query("obj", &region).unwrap();
        let b = parallel.range_query("obj", &region).unwrap();
        assert_eq!(a.array, b.array);
        assert_eq!(a.stats.tiles_read, b.stats.tiles_read);
        assert_eq!(a.stats.cells_processed, b.stats.cells_processed);
        assert_eq!(a.stats.cells_copied, b.stats.cells_copied);
        assert_eq!(a.stats.cells_defaulted, b.stats.cells_defaulted);

        // Re-tiling through the pool preserves content too.
        serial
            .retile("obj", Scheme::Aligned(AlignedTiling::regular(2, 4096)))
            .unwrap();
        parallel
            .retile("obj", Scheme::Aligned(AlignedTiling::regular(2, 4096)))
            .unwrap();
        let a2 = serial.range_query("obj", &region).unwrap();
        let b2 = parallel.range_query("obj", &region).unwrap();
        assert_eq!(a2.array, b2.array);
        let all = parallel.range_query("obj", &d("[0:59,0:59]")).unwrap();
        assert_eq!(all.array, data);
    }

    #[test]
    fn retile_preserves_partial_coverage() {
        let db = fresh_db_with_object(Scheme::Aligned(AlignedTiling::regular(2, 4096)));
        db.insert("obj", &checkerboard("[0:9,0:9]")).unwrap();
        db.insert("obj", &checkerboard("[90:99,90:99]")).unwrap();
        let before = db.object("obj").unwrap().covered_cells();
        db.retile("obj", Scheme::Aligned(AlignedTiling::regular(2, 512)))
            .unwrap();
        let after = db.object("obj").unwrap().covered_cells();
        // The uncovered middle must not have been densified.
        assert!(after < d("[0:99,0:99]").cells(), "object was densified");
        assert!(after >= before);
        let q = db.range_query("obj", &d("[0:9,0:9]")).unwrap();
        assert_eq!(q.array, checkerboard("[0:9,0:9]"));
    }

    #[test]
    fn drop_object_frees_blobs() {
        let db = fresh_db_with_object(Scheme::Aligned(AlignedTiling::regular(2, 1024)));
        db.insert("obj", &checkerboard("[0:19,0:19]")).unwrap();
        assert!(db.blob_store().blob_count() > 0);
        db.drop_object("obj").unwrap();
        assert_eq!(db.blob_store().blob_count(), 0);
        assert!(db.object("obj").is_err());
        assert!(db.drop_object("obj").is_err());
    }

    #[test]
    fn empty_object_behaviour() {
        let db_err = {
            let db = fresh_db_with_object(Scheme::default_for(2));
            let r = db.query("obj", &AccessRegion::Whole);
            assert!(matches!(r, Err(EngineError::EmptyObject(_))));
            db.retile("obj", Scheme::default_for(2))
        };
        assert!(matches!(db_err, Err(EngineError::EmptyObject(_))));
    }

    #[test]
    fn duplicate_and_unknown_objects() {
        let db = fresh_db_with_object(Scheme::default_for(2));
        assert!(matches!(
            db.create_object("obj", u32_type("[0:*,0:*]"), Scheme::default_for(2)),
            Err(EngineError::ObjectExists(_))
        ));
        assert!(matches!(
            db.range_query("nope", &d("[0:1,0:1]")),
            Err(EngineError::UnknownObject(_))
        ));
        assert!(matches!(
            db.insert("nope", &checkerboard("[0:1,0:1]")),
            Err(EngineError::UnknownObject(_))
        ));
    }

    #[test]
    fn cell_size_mismatch_rejected() {
        let db = fresh_db_with_object(Scheme::default_for(2));
        let bytes = Array::from_cells(d("[0:1,0:1]"), &[1u8, 2, 3, 4]).unwrap();
        assert!(matches!(
            db.insert("obj", &bytes),
            Err(EngineError::CellSizeMismatch {
                expected: 4,
                got: 1
            })
        ));
    }

    #[test]
    fn snapshot_isolation_across_a_retile() {
        let db = fresh_db_with_object(Scheme::Aligned(AlignedTiling::regular(2, 1024)));
        let data = checkerboard("[0:31,0:31]");
        let ins = db.insert("obj", &data).unwrap();
        let blobs_before = db.blob_store().blob_count();

        // Pin a snapshot, then retile underneath it.
        let snap = db.begin_read();
        assert_eq!(snap.epoch(), ins.epoch);
        let receipt = db
            .retile("obj", Scheme::Aligned(AlignedTiling::regular(2, 4096)))
            .unwrap();
        assert!(receipt.epoch > ins.epoch);

        // The old tiles stay readable through the snapshot: both content
        // and tile count are the pre-retile ones.
        let q = snap.range_query("obj", &d("[0:31,0:31]")).unwrap();
        assert_eq!(q.array, data);
        assert_eq!(q.epoch, ins.epoch);
        assert_eq!(snap.object("obj").unwrap().tile_count(), blobs_before);
        // Old + new tiles coexist while the snapshot lives...
        assert!(db.blob_store().blob_count() > db.object("obj").unwrap().tile_count());

        // ...and a fresh read sees the new epoch and the new tiling.
        let fresh = db.range_query("obj", &d("[0:31,0:31]")).unwrap();
        assert_eq!(fresh.epoch, receipt.epoch);
        assert_eq!(fresh.array, data);

        // Dropping the last old snapshot reclaims the retired blobs; what
        // remains is exactly the new tiles.
        drop(snap);
        assert_eq!(
            db.blob_store().blob_count(),
            db.object("obj").unwrap().tile_count()
        );
    }

    /// Both kinds of handle: none — what `open_dir`, the CLI and every
    /// cluster shard use — and a two-worker pool.
    fn executor_cases() -> [Option<Arc<ThreadPool>>; 2] {
        [None, Some(Arc::new(ThreadPool::new(2)))]
    }

    /// Inserts row-bands one at a time so consecutive blob ids belong to
    /// spatially scattered tiles — the worst case for physical locality.
    fn scattered_db(executor: Option<Arc<ThreadPool>>) -> Database<MemPageStore> {
        let db = fresh_db_with_object(Scheme::Aligned(AlignedTiling::regular(2, 1024)));
        if let Some(executor) = executor {
            db.set_executor(executor);
        }
        // Reverse row order: later rows get earlier pages.
        for row in (0..4).rev() {
            let lo = row * 16;
            let dom = format!("[{}:{},0:63]", lo, lo + 15);
            db.insert("obj", &checkerboard(&dom)).unwrap();
        }
        db
    }

    #[test]
    fn defrag_preserves_contents_and_coalesces_reads() {
        for executor in executor_cases() {
            let case = if executor.is_some() {
                "pool"
            } else {
                "no executor"
            };
            let db = scattered_db(executor);
            let before = db.range_query("obj", &d("[0:63,0:63]")).unwrap();
            let meta_before = db.object("obj").unwrap();
            let receipt = db.defrag("obj").unwrap();
            assert_eq!(receipt.stats.tiles_before, receipt.stats.tiles_after);
            assert!(receipt.stats.bytes_rewritten > 0);
            let after = db.range_query("obj", &d("[0:63,0:63]")).unwrap();
            assert_eq!(after.array, before.array, "{case}: defrag changed a cell");
            // Tiling unchanged: same tile count, same domains, new blobs.
            let meta_after = db.object("obj").unwrap();
            assert_eq!(meta_before.tiles.len(), meta_after.tiles.len());
            for (a, b) in meta_before.tiles.iter().zip(&meta_after.tiles) {
                assert_eq!(a.domain, b.domain);
            }
            // Every blob is now contiguous, and the full-object read
            // coalesces into physical runs.
            for t in &meta_after.tiles {
                assert_eq!(db.blob_store().blob_placement(t.blob).unwrap().runs, 1);
            }
            let io = db.range_query("obj", &d("[0:63,0:63]")).unwrap().stats.io;
            assert!(
                io.runs_coalesced > 0 && io.runs_coalesced < io.pages_read,
                "{case}: expected coalesced runs, got {io:?}"
            );
            // Idempotent: a second defrag finds everything in place and
            // commits nothing.
            let epoch = db.begin_read().epoch();
            let again = db.defrag("obj").unwrap();
            assert_eq!(again.epoch, epoch);
            assert_eq!(again.stats.bytes_rewritten, 0);
        }
    }

    #[test]
    fn defrag_step_converges_under_tiny_budget() {
        for executor in executor_cases() {
            let case = if executor.is_some() {
                "pool"
            } else {
                "no executor"
            };
            let db = scattered_db(executor);
            let before = db.range_query("obj", &d("[0:63,0:63]")).unwrap();
            let mut steps = 0;
            loop {
                // A 1-byte budget still moves at least two tiles per step.
                let receipt = db.defrag_step("obj", 1).unwrap();
                steps += 1;
                assert!(steps < 100, "{case}: defrag_step failed to converge");
                if receipt.stats.tiles_remaining == 0 {
                    break;
                }
                assert!(receipt.stats.tiles_moved >= 2);
            }
            assert!(steps > 1, "{case}: tiny budget should need several steps");
            let after = db.range_query("obj", &d("[0:63,0:63]")).unwrap();
            assert_eq!(after.array, before.array, "{case}");
            for t in &db.object("obj").unwrap().tiles {
                assert_eq!(db.blob_store().blob_placement(t.blob).unwrap().runs, 1);
            }
            // Converged: the next step is a no-op at the same epoch.
            let epoch = db.begin_read().epoch();
            let done = db.defrag_step("obj", 1).unwrap();
            assert_eq!(done.stats.tiles_moved, 0);
            assert_eq!(done.stats.tiles_remaining, 0);
            assert_eq!(done.epoch, epoch);
        }
    }

    #[test]
    fn paced_defrag_folds_its_steps_into_one_report() {
        let db = scattered_db(None);
        let before = db.range_query("obj", &d("[0:63,0:63]")).unwrap();
        let tiles = db.object("obj").unwrap().tile_count() as u64;
        let paced = db.defrag_paced("obj", Some(1)).unwrap();
        assert_eq!((paced.tiles_before, paced.tiles_after), (tiles, tiles));
        assert!(paced.bytes_rewritten > 0);
        assert_eq!(
            paced.epoch,
            db.begin_read().epoch(),
            "reports the last step"
        );
        let meta = db.object("obj").unwrap();
        let order = curve_order(&meta.tiles);
        assert_eq!(
            db.contiguous_prefix(&meta.tiles, &order).unwrap(),
            order.len()
        );
        let after = db.range_query("obj", &d("[0:63,0:63]")).unwrap();
        assert_eq!(after.array, before.array);
    }

    #[test]
    fn insert_stats_count_exactly_the_blobs_written() {
        let db = fresh_db_with_object(Scheme::Aligned(AlignedTiling::regular(2, 1024)));
        let before = db.io_stats().snapshot();
        let ins = db.insert("obj", &checkerboard("[0:39,0:39]")).unwrap();
        let io = db.io_stats().snapshot().since(&before);
        assert_eq!(ins.bytes_written, io.bytes_written);
        assert_eq!(ins.pages_written, io.pages_written);
        assert_eq!(io.blobs_written, ins.tiles_created, "one blob per tile");
    }

    #[test]
    fn defrag_empty_object_reports_empty() {
        let db = fresh_db_with_object(Scheme::Aligned(AlignedTiling::regular(2, 1024)));
        assert!(matches!(db.defrag("obj"), Err(EngineError::EmptyObject(_))));
        assert!(matches!(
            db.defrag_step("obj", 1 << 20),
            Err(EngineError::EmptyObject(_))
        ));
        assert!(db.defrag("nope").is_err());
    }

    #[test]
    fn snapshot_survives_defrag_and_reads_old_placement() {
        let db = scattered_db(None);
        let snap = db.begin_read();
        let receipt = db.defrag("obj").unwrap();
        let q = snap.range_query("obj", &d("[0:63,0:63]")).unwrap();
        assert_eq!(q.array, checkerboard("[0:63,0:63]"));
        assert!(q.epoch < receipt.epoch, "snapshot pinned the old epoch");
        drop(snap);
        // Old blobs reclaimed: exactly the tiles remain.
        assert_eq!(
            db.blob_store().blob_count(),
            db.object("obj").unwrap().tile_count()
        );
    }

    #[test]
    fn snapshot_keeps_dropped_object_readable() {
        let db = fresh_db_with_object(Scheme::Aligned(AlignedTiling::regular(2, 1024)));
        let data = checkerboard("[0:15,0:15]");
        db.insert("obj", &data).unwrap();
        let snap = db.begin_read();
        db.drop_object("obj").unwrap();
        assert!(db.object("obj").is_err(), "current catalog dropped it");
        let q = snap.range_query("obj", &d("[0:15,0:15]")).unwrap();
        assert_eq!(q.array, data, "snapshot still reads the dropped object");
        drop(snap);
        assert_eq!(db.blob_store().blob_count(), 0);
    }

    #[test]
    fn writer_commits_bump_the_epoch_monotonically() {
        let db = fresh_db_with_object(Scheme::Aligned(AlignedTiling::regular(2, 1024)));
        let e0 = db.begin_read().epoch();
        let ins = db.insert("obj", &checkerboard("[0:15,0:15]")).unwrap();
        assert!(ins.epoch > e0);
        let ret = db
            .retile("obj", Scheme::Aligned(AlignedTiling::regular(2, 4096)))
            .unwrap();
        assert!(ret.epoch > ins.epoch);
        assert_eq!(db.begin_read().epoch(), ret.epoch);
        // The durable commit epoch is independent: nothing was saved.
        assert_eq!(db.catalog_epoch(), 0);
    }
}
