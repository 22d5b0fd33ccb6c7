//! Catalog persistence: saving and reopening a file-backed database.
//!
//! A database directory holds two files: `pages.db` (the page store) and
//! `catalog.json` (object metadata, tile directories and the BLOB
//! directory). The physical storage layout stays transparent to the user
//! (§5): reopening restores every object, scheme and index exactly.
//!
//! # Durability
//!
//! [`Database::save`] is the commit point. It syncs the page store, then
//! publishes the catalog atomically: write `catalog.json.tmp`, fsync it,
//! rename over `catalog.json`, fsync the directory. A crash at any moment
//! leaves either the previous committed catalog or the new one — never a
//! torn mix. Each commit carries a monotonically increasing epoch.
//!
//! [`Database::open_dir`] recovers from interrupted commits: a stale
//! `catalog.json.tmp` is discarded, the page accounting is verified against
//! the catalog, and orphaned pages (allocated after the last commit, so
//! referenced by nothing) are reclaimed onto the free list. [`fsck`] runs
//! the same checks read-only and additionally verifies every BLOB's page
//! checksums.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use tilestore_obs::AccessRecorder;
use tilestore_storage::{
    BlobDirectory, BlobId, BlobStore, BufferPool, FilePageStore, PageStore, DEFAULT_PAGE_SIZE,
};
use tilestore_testkit::json::required;
use tilestore_testkit::{FromJson, Json, JsonError, JsonReader, ToJson};

use crate::database::Database;
use crate::error::{EngineError, Result};
use crate::mdd::MddObject;
use crate::plan::Plan;
use crate::synopsis::TileSynopsis;

/// Serializable catalog of a whole database.
#[derive(Debug)]
pub struct Catalog {
    /// Page size of the page store.
    pub page_size: usize,
    /// Commit epoch: 0 for a never-saved database, bumped on every save.
    pub epoch: u64,
    /// BLOB directory of the store.
    pub blobs: BlobDirectory,
    /// All object metadata.
    pub objects: Vec<MddObject>,
}

impl ToJson for Catalog {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("page_size", self.page_size.to_json()),
            ("epoch", self.epoch.to_json()),
            ("blobs", self.blobs.to_json()),
            ("objects", self.objects.to_json()),
        ])
    }
}

impl FromJson for Catalog {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (mut page_size, mut epoch, mut blobs, mut objects) = (None, None, None, None);
        r.object(|r, key| match key {
            "page_size" => r.field(&mut page_size),
            "epoch" => r.field(&mut epoch),
            "blobs" => r.field(&mut blobs),
            "objects" => r.field(&mut objects),
            _ => r.skip(),
        })?;
        Ok(Catalog {
            page_size: required(page_size, "page_size")?,
            // Catalogs written before epochs existed read as epoch 0.
            epoch: epoch.unwrap_or(0),
            blobs: required(blobs, "blobs")?,
            objects: required(objects, "objects")?,
        })
    }
}

/// Name of the page file inside a database directory.
pub const PAGES_FILE: &str = "pages.db";
/// Name of the catalog file inside a database directory.
pub const CATALOG_FILE: &str = "catalog.json";
/// Scratch name the catalog is staged under before its atomic rename.
pub const CATALOG_TMP_FILE: &str = "catalog.json.tmp";
/// Name of the persistent query-access log inside a database directory.
pub const ACCESS_LOG_FILE: &str = "access.log";

fn catalog_err(context: &str, e: impl fmt::Display) -> EngineError {
    EngineError::Catalog(format!("{context}: {e}"))
}

/// Fsyncs a directory so a rename inside it is durable (POSIX keeps the
/// directory entry volatile otherwise).
fn fsync_dir(dir: &Path) -> Result<()> {
    let d = fs::File::open(dir).map_err(|e| catalog_err("opening directory for fsync", e))?;
    d.sync_all()
        .map_err(|e| catalog_err("fsyncing directory", e))
}

impl<S: PageStore> Database<S> {
    /// Exports the catalog (objects + BLOB directory) for persistence. The
    /// epoch is the database's current commit epoch; [`Database::save`]
    /// stamps the successor epoch at the commit point.
    ///
    /// # Errors
    /// [`EngineError::Catalog`] if an object listed in the name index has
    /// lost its metadata (internal inconsistency).
    pub fn catalog(&self) -> Result<Catalog> {
        let mut objects = Vec::new();
        for name in self.object_names() {
            let obj = self
                .object(&name)
                .map_err(|_| catalog_err("exporting catalog", format!("object {name} vanished")))?;
            objects.push((*obj).clone());
        }
        // Blobs retired by past commits but kept alive for live snapshots
        // must not become durable: export them as free space instead.
        Ok(Catalog {
            page_size: self.blob_store().page_store().page_size(),
            epoch: self.catalog_epoch(),
            blobs: self
                .blob_store()
                .directory_excluding(&self.pending_retired_blobs()),
            objects,
        })
    }

    /// Rebuilds a database from a page store and a previously exported
    /// catalog.
    ///
    /// Every blob in the directory is a tile of exactly one object. A blob
    /// no tile references (a value-bitmap blob written by older versions)
    /// is deleted here: no snapshot can exist this early, and the next
    /// [`Database::save`] frees its pages.
    #[must_use]
    pub fn from_catalog(store: S, catalog: Catalog) -> Self {
        let unreferenced = unreferenced_blobs(&catalog.blobs, &catalog.objects);
        let blobs = BlobStore::with_directory(store, catalog.blobs);
        for id in unreferenced {
            let _ = blobs.delete(BlobId(id));
        }
        let db = Database::from_blob_store(blobs);
        for mut meta in catalog.objects {
            db.rescan_missing_synopses(&mut meta);
            db.restore_object(meta);
        }
        db.set_catalog_epoch(catalog.epoch);
        // Snapshot epochs continue from the durable sequence rather than
        // restarting at zero on every reopen.
        db.set_snapshot_epoch(catalog.epoch);
        db
    }

    /// Rescans the payload of every tile of a restored object that has no
    /// synopsis. Catalogs written before synopses existed lack them; they
    /// are rebuilt once here, through one plan over those tiles, so every
    /// opened database prunes, and the next [`Database::save`] persists
    /// them. A tile the plan cannot read or decode stops the rescan: the
    /// tiles it did not reach keep no synopsis, so queries read them
    /// instead of pruning them. The common reopen path (synopses present)
    /// reads no blob.
    fn rescan_missing_synopses(&self, meta: &mut MddObject) {
        let missing: Vec<u64> = (0..meta.tiles.len() as u64)
            .filter(|&pos| meta.tiles[pos as usize].synopsis.is_none())
            .collect();
        let (Some(region), false) = (meta.current_domain.clone(), missing.is_empty()) else {
            return;
        };
        let object = Arc::new(meta.clone());
        let blobs = self.blob_store();
        let _unreached = Plan::over_tiles(blobs, &object, &region, missing, 0).and_then(|plan| {
            plan.fetch(blobs, |pos, cells| {
                let synopsis = TileSynopsis::scan(&meta.mdd_type.cell, cells.bytes_mut());
                meta.tiles[pos as usize].synopsis = Some(synopsis);
                Ok(())
            })
        });
    }

    /// Durably commits the catalog to the database directory.
    ///
    /// Commit protocol: (1) sync the page store so every page the catalog
    /// references is on disk, (2) write the catalog to
    /// [`CATALOG_TMP_FILE`] and fsync it, (3) rename it over
    /// [`CATALOG_FILE`], (4) fsync the directory. Only after all four steps
    /// does the epoch advance and the quarantined (freed-since-last-commit)
    /// pages return to the free list — a crash anywhere in between leaves
    /// the previous committed state fully intact.
    ///
    /// # Errors
    /// Serialization or file I/O errors; on error nothing is committed.
    pub fn save<P: AsRef<Path>>(&self, dir: P) -> Result<()> {
        let _span = tilestore_obs::tracer().span("catalog_commit");
        let dir = dir.as_ref();
        // Serialize against writers: the exported catalog must be one
        // consistent epoch, not a torn mix across a concurrent commit.
        let _w = self.lock_writer();
        // 1. Page data first: the catalog must never point at volatile pages.
        self.blob_store().page_store().sync()?;
        // 2. Stage the successor-epoch catalog.
        let mut catalog = self.catalog()?;
        catalog.epoch = self.catalog_epoch() + 1;
        let json = tilestore_testkit::json::to_string(&catalog);
        let tmp = dir.join(CATALOG_TMP_FILE);
        {
            let mut f =
                fs::File::create(&tmp).map_err(|e| catalog_err("creating catalog.json.tmp", e))?;
            f.write_all(json.as_bytes())
                .map_err(|e| catalog_err("writing catalog.json.tmp", e))?;
            f.sync_all()
                .map_err(|e| catalog_err("fsyncing catalog.json.tmp", e))?;
        }
        // 3 + 4. The atomic commit point.
        fs::rename(&tmp, dir.join(CATALOG_FILE))
            .map_err(|e| catalog_err("renaming catalog into place", e))?;
        fsync_dir(dir)?;
        // Committed: pages freed before this point can now be reused safely.
        self.set_catalog_epoch(catalog.epoch);
        self.blob_store().release_freed_pages();
        tilestore_obs::hot().catalog_commits.inc();
        // The access log buffers its lines; a save writes them out too. Like
        // a failed record, a failed flush is counted, not fatal.
        if let Some(rec) = self.recorder() {
            if rec.flush().is_err() {
                tilestore_obs::metrics()
                    .counter("engine.recorder_errors")
                    .inc();
            }
        }
        Ok(())
    }
}

/// The page store file-backed databases serve from: a sharded write-through
/// [`BufferPool`] over the checksummed [`FilePageStore`]. Cache hits skip
/// both the file read and the per-page CRC-32 frame verification, which is
/// what lifts multi-client serving throughput; the shards keep concurrent
/// readers off one global mutex.
pub type CachedFileStore = BufferPool<FilePageStore>;

/// Default buffer-pool size for file-backed databases, in pages (8 MiB at
/// the default 8 KiB page size).
pub const DEFAULT_CACHE_PAGES: usize = 1024;

impl Database<CachedFileStore> {
    /// Creates a new file-backed database in `dir` (created if missing),
    /// served through a [`CachedFileStore`] with [`DEFAULT_CACHE_PAGES`]
    /// frames across [`tilestore_storage::DEFAULT_SHARDS`] shards.
    ///
    /// # Errors
    /// Directory/file I/O errors.
    pub fn create_dir<P: AsRef<Path>>(dir: P) -> Result<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(|e| EngineError::Catalog(e.to_string()))?;
        let store = FilePageStore::create(dir.join(PAGES_FILE), DEFAULT_PAGE_SIZE)?;
        let db = Database::with_store(BufferPool::new(store, DEFAULT_CACHE_PAGES)?);
        let recorder = AccessRecorder::open(dir.join(ACCESS_LOG_FILE))
            .map_err(|e| catalog_err("opening access log", e))?;
        db.set_recorder(recorder);
        Ok(db)
    }

    /// Reopens a database saved with [`Database::save`], recovering from an
    /// interrupted commit if necessary: a stale [`CATALOG_TMP_FILE`] is
    /// discarded, the page accounting is cross-checked against the catalog
    /// (dangling or duplicated page references are rejected as
    /// unrepairable corruption), and orphaned pages — allocated by work
    /// that crashed before its commit — are reclaimed onto the free list.
    ///
    /// # Errors
    /// Missing/corrupt catalog, unrepairable page accounting, or page-file
    /// I/O errors.
    pub fn open_dir<P: AsRef<Path>>(dir: P) -> Result<Self> {
        let dir = dir.as_ref();
        // A leftover tmp is a commit that never reached its rename; the
        // authoritative catalog is the committed one.
        let tmp = dir.join(CATALOG_TMP_FILE);
        if tmp.exists() {
            fs::remove_file(&tmp).map_err(|e| catalog_err("removing stale catalog.json.tmp", e))?;
        }
        let json = fs::read_to_string(dir.join(CATALOG_FILE))
            .map_err(|e| catalog_err("reading catalog", e))?;
        let catalog: Catalog = tilestore_testkit::json::from_str(&json)
            .map_err(|e| catalog_err("parsing catalog", e))?;
        let store = FilePageStore::open(dir.join(PAGES_FILE), catalog.page_size)?;
        let db = Database::from_catalog(BufferPool::new(store, DEFAULT_CACHE_PAGES)?, catalog);
        // Cross-check the page file against the committed directory.
        let check = db.blob_store().check_pages();
        if !check.is_repairable() {
            return Err(EngineError::Catalog(format!(
                "page accounting corrupt: {} dangling, {} duplicated page refs",
                check.dangling.len(),
                check.duplicated.len()
            )));
        }
        db.blob_store().reclaim_orphans(check.orphaned);
        // Every tile the catalog lists must resolve to a live BLOB.
        for name in db.object_names() {
            for tile in &db.object(&name)?.tiles {
                db.blob_store().blob_len(tile.blob).map_err(|_| {
                    EngineError::Catalog(format!(
                        "object {name} references missing BLOB {}",
                        tile.blob.0
                    ))
                })?;
            }
        }
        let recorder = AccessRecorder::open(dir.join(ACCESS_LOG_FILE))
            .map_err(|e| catalog_err("opening access log", e))?;
        db.set_recorder(recorder);
        Ok(db)
    }
}

/// Read-only consistency report for a database directory ([`fsck`]).
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Commit epoch of the on-disk catalog.
    pub epoch: u64,
    /// Number of objects in the catalog.
    pub objects: u64,
    /// Number of BLOBs in the directory.
    pub blobs: u64,
    /// Pages allocated in the page file.
    pub allocated_pages: u64,
    /// Pages on the free list.
    pub free_pages: u64,
    /// Allocated pages referenced by nothing (reclaimable leak).
    pub orphaned_pages: Vec<u64>,
    /// Page references beyond the allocated range (unrepairable).
    pub dangling_pages: Vec<u64>,
    /// Pages referenced more than once (unrepairable).
    pub duplicated_pages: Vec<u64>,
    /// BLOBs whose pages fail checksum verification (torn/corrupt frames).
    pub unreadable_blobs: Vec<u64>,
    /// `(object, blob)` tile references that resolve to no BLOB.
    pub missing_tile_blobs: Vec<(String, u64)>,
    /// BLOBs in the directory that no tile references (reclaimable leak:
    /// the next open deletes them, the commit after it frees their pages).
    pub unreferenced_blobs: Vec<u64>,
    /// Whether a stale `catalog.json.tmp` (interrupted commit) is present.
    pub stale_tmp: bool,
}

impl FsckReport {
    /// No inconsistencies of any kind.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        !self.stale_tmp
            && self.orphaned_pages.is_empty()
            && self.dangling_pages.is_empty()
            && self.duplicated_pages.is_empty()
            && self.unreadable_blobs.is_empty()
            && self.missing_tile_blobs.is_empty()
            && self.unreferenced_blobs.is_empty()
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "epoch {}: {} objects, {} blobs, {} pages allocated ({} free)",
            self.epoch, self.objects, self.blobs, self.allocated_pages, self.free_pages
        )?;
        if self.is_clean() {
            return write!(f, "clean");
        }
        if self.stale_tmp {
            writeln!(f, "stale catalog.json.tmp (interrupted commit)")?;
        }
        if !self.orphaned_pages.is_empty() {
            writeln!(f, "orphaned pages (reclaimable): {:?}", self.orphaned_pages)?;
        }
        if !self.dangling_pages.is_empty() {
            writeln!(f, "dangling page refs: {:?}", self.dangling_pages)?;
        }
        if !self.duplicated_pages.is_empty() {
            writeln!(f, "duplicated page refs: {:?}", self.duplicated_pages)?;
        }
        if !self.unreadable_blobs.is_empty() {
            writeln!(f, "unreadable blobs: {:?}", self.unreadable_blobs)?;
        }
        for (obj, blob) in &self.missing_tile_blobs {
            writeln!(f, "object {obj} references missing blob {blob}")?;
        }
        if !self.unreferenced_blobs.is_empty() {
            writeln!(
                f,
                "blobs no tile references (reclaimable): {:?}",
                self.unreferenced_blobs
            )?;
        }
        write!(f, "NOT clean")
    }
}

/// Ids of the directory's blobs that no tile of `objects` references.
fn unreferenced_blobs(blobs: &BlobDirectory, objects: &[MddObject]) -> Vec<u64> {
    let tile_blobs: BTreeSet<u64> = objects
        .iter()
        .flat_map(|o| o.tiles.iter().map(|t| t.blob.0))
        .collect();
    blobs
        .blobs()
        .map(|(id, _, _)| id.0)
        .filter(|id| !tile_blobs.contains(id))
        .collect()
}

/// Checks a database directory for consistency without modifying it:
/// catalog parses, page accounting balances, every BLOB's pages pass
/// checksum verification, every tile reference resolves, and every BLOB
/// is referenced by a tile.
///
/// # Errors
/// Missing/corrupt catalog or page-file I/O errors (a database too damaged
/// to even inspect).
pub fn fsck<P: AsRef<Path>>(dir: P) -> Result<FsckReport> {
    let dir = dir.as_ref();
    let stale_tmp = dir.join(CATALOG_TMP_FILE).exists();
    let json = fs::read_to_string(dir.join(CATALOG_FILE))
        .map_err(|e| catalog_err("reading catalog", e))?;
    let catalog: Catalog =
        tilestore_testkit::json::from_str(&json).map_err(|e| catalog_err("parsing catalog", e))?;
    let Catalog {
        page_size,
        epoch,
        blobs,
        objects,
    } = catalog;
    let blob_ids: BTreeSet<u64> = blobs.blobs().map(|(id, _, _)| id.0).collect();
    let unreferenced = unreferenced_blobs(&blobs, &objects);
    let free_pages = blobs.free_pages().len() as u64;
    let store = FilePageStore::open(dir.join(PAGES_FILE), page_size)?;
    let bs = BlobStore::with_directory(store, blobs);
    let check = bs.check_pages();
    let mut report = FsckReport {
        epoch,
        objects: objects.len() as u64,
        blobs: blob_ids.len() as u64,
        allocated_pages: check.allocated,
        free_pages,
        orphaned_pages: check.orphaned.iter().map(|p| p.0).collect(),
        dangling_pages: check.dangling.iter().map(|p| p.0).collect(),
        duplicated_pages: check.duplicated.iter().map(|p| p.0).collect(),
        unreferenced_blobs: unreferenced,
        stale_tmp,
        ..FsckReport::default()
    };
    // Full checksum sweep: reading a BLOB verifies every frame it spans.
    for &id in &blob_ids {
        if bs.read(BlobId(id)).is_err() {
            report.unreadable_blobs.push(id);
        }
    }
    for obj in &objects {
        for tile in &obj.tiles {
            if !blob_ids.contains(&tile.blob.0) {
                report
                    .missing_tile_blobs
                    .push((obj.name.clone(), tile.blob.0));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use tilestore_geometry::{Domain, Point};
    use tilestore_tiling::{AlignedTiling, Scheme};

    use super::*;
    use crate::aggregate::AggKind;
    use crate::array::Array;
    use crate::celltype::CellType;
    use crate::mdd::MddType;

    #[test]
    fn save_and_reopen_round_trip() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let dom: Domain = "[0:29,0:29]".parse().unwrap();
        let data = Array::from_fn(dom.clone(), |p| (p[0] * 31 + p[1]) as u32).unwrap();
        {
            let db = Database::create_dir(dir.path()).unwrap();
            db.create_object(
                "grid",
                MddType::new(CellType::of::<u32>(), "[0:*,0:*]".parse().unwrap()),
                Scheme::Aligned(AlignedTiling::regular(2, 1024)),
            )
            .unwrap();
            db.insert("grid", &data).unwrap();
            db.save(dir.path()).unwrap();
        }
        let db = Database::open_dir(dir.path()).unwrap();
        let obj = db.object("grid").unwrap();
        assert_eq!(obj.current_domain, Some(dom.clone()));
        assert!(obj.tile_count() > 1);
        let q = db.range_query("grid", &dom).unwrap();
        assert_eq!(q.array, data);
        assert!(q.stats.io.pages_read > 0);
        // Point probe through the reopened index.
        let one = db
            .range_query("grid", &"[7:7,11:11]".parse().unwrap())
            .unwrap();
        assert_eq!(
            one.array.get::<u32>(&Point::from_slice(&[7, 11])).unwrap(),
            7 * 31 + 11
        );
    }

    #[test]
    fn save_commits_atomically_and_bumps_epoch() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let db = Database::create_dir(dir.path()).unwrap();
        assert_eq!(db.catalog_epoch(), 0);
        db.create_object(
            "g",
            MddType::new(CellType::of::<u8>(), "[0:*]".parse().unwrap()),
            Scheme::Aligned(AlignedTiling::regular(1, 512)),
        )
        .unwrap();
        db.insert(
            "g",
            &Array::filled("[0:99]".parse().unwrap(), &[3]).unwrap(),
        )
        .unwrap();
        db.save(dir.path()).unwrap();
        assert_eq!(db.catalog_epoch(), 1);
        // No staging file survives a successful commit.
        assert!(!dir.path().join(CATALOG_TMP_FILE).exists());
        db.save(dir.path()).unwrap();
        assert_eq!(db.catalog_epoch(), 2);
        // Reopening continues the epoch sequence.
        let db = Database::open_dir(dir.path()).unwrap();
        assert_eq!(db.catalog_epoch(), 2);
        db.save(dir.path()).unwrap();
        assert_eq!(db.catalog_epoch(), 3);
    }

    #[test]
    fn stale_tmp_from_interrupted_commit_is_discarded() {
        let dir = tilestore_testkit::tempdir().unwrap();
        {
            let db = Database::create_dir(dir.path()).unwrap();
            db.create_object(
                "g",
                MddType::new(CellType::of::<u8>(), "[0:*]".parse().unwrap()),
                Scheme::Aligned(AlignedTiling::regular(1, 512)),
            )
            .unwrap();
            db.insert(
                "g",
                &Array::filled("[0:49]".parse().unwrap(), &[9]).unwrap(),
            )
            .unwrap();
            db.save(dir.path()).unwrap();
        }
        // Simulate a crash between staging and rename: garbage tmp on disk.
        fs::write(dir.path().join(CATALOG_TMP_FILE), b"{half a cat").unwrap();
        let report = fsck(dir.path()).unwrap();
        assert!(report.stale_tmp);
        assert!(!report.is_clean());
        let db = Database::open_dir(dir.path()).unwrap();
        assert!(!dir.path().join(CATALOG_TMP_FILE).exists());
        let q = db.range_query("g", &"[0:49]".parse().unwrap()).unwrap();
        assert!(q.array.to_cells::<u8>().unwrap().iter().all(|&c| c == 9));
    }

    #[test]
    fn truncated_catalog_fails_cleanly() {
        let dir = tilestore_testkit::tempdir().unwrap();
        {
            let db = Database::create_dir(dir.path()).unwrap();
            db.create_object(
                "g",
                MddType::new(CellType::of::<u8>(), "[0:*]".parse().unwrap()),
                Scheme::Aligned(AlignedTiling::regular(1, 512)),
            )
            .unwrap();
            db.save(dir.path()).unwrap();
        }
        let full = fs::read_to_string(dir.path().join(CATALOG_FILE)).unwrap();
        fs::write(dir.path().join(CATALOG_FILE), &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            Database::open_dir(dir.path()),
            Err(EngineError::Catalog(_))
        ));
    }

    #[test]
    fn fsck_reports_clean_database() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let db = Database::create_dir(dir.path()).unwrap();
        db.create_object(
            "m",
            MddType::new(CellType::of::<u32>(), "[0:*,0:*]".parse().unwrap()),
            Scheme::Aligned(AlignedTiling::regular(2, 1024)),
        )
        .unwrap();
        db.insert(
            "m",
            &Array::from_fn("[0:19,0:19]".parse().unwrap(), |p| p[0] as u32).unwrap(),
        )
        .unwrap();
        db.save(dir.path()).unwrap();
        let report = fsck(dir.path()).unwrap();
        assert!(report.is_clean(), "dirty: {report}");
        assert_eq!(report.epoch, 1);
        assert_eq!(report.objects, 1);
        assert!(report.blobs > 1);
        assert!(report.allocated_pages > 0);
        assert!(format!("{report}").contains("clean"));
    }

    #[test]
    fn fsck_flags_orphans_after_uncommitted_work() {
        let dir = tilestore_testkit::tempdir().unwrap();
        {
            let db = Database::create_dir(dir.path()).unwrap();
            db.create_object(
                "m",
                MddType::new(CellType::of::<u32>(), "[0:*,0:*]".parse().unwrap()),
                Scheme::Aligned(AlignedTiling::regular(2, 1024)),
            )
            .unwrap();
            db.insert(
                "m",
                &Array::from_fn("[0:9,0:9]".parse().unwrap(), |p| p[1] as u32).unwrap(),
            )
            .unwrap();
            db.save(dir.path()).unwrap();
            // More inserts after the commit, never saved: their pages are
            // allocated in the file but referenced by no committed catalog.
            db.insert(
                "m",
                &Array::from_fn("[20:29,0:9]".parse().unwrap(), |p| p[1] as u32).unwrap(),
            )
            .unwrap();
        }
        let report = fsck(dir.path()).unwrap();
        assert!(!report.orphaned_pages.is_empty());
        assert!(!report.is_clean());
        // Recovery reclaims them; the next commit makes the repair durable.
        let db = Database::open_dir(dir.path()).unwrap();
        db.save(dir.path()).unwrap();
        assert!(fsck(dir.path()).unwrap().is_clean());
    }

    #[test]
    fn file_backed_db_records_accesses_persistently() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let region: Domain = "[0:4,0:4]".parse().unwrap();
        {
            let db = Database::create_dir(dir.path()).unwrap();
            db.create_object(
                "m",
                MddType::new(CellType::of::<u32>(), "[0:*,0:*]".parse().unwrap()),
                Scheme::Aligned(AlignedTiling::regular(2, 1024)),
            )
            .unwrap();
            db.insert(
                "m",
                &Array::from_fn("[0:19,0:19]".parse().unwrap(), |p| p[0] as u32).unwrap(),
            )
            .unwrap();
            db.range_query("m", &region).unwrap();
            db.range_query("m", &region).unwrap();
            db.save(dir.path()).unwrap();
        }
        // The log file exists and survives reopening.
        assert!(dir.path().join(ACCESS_LOG_FILE).exists());
        let db = Database::open_dir(dir.path()).unwrap();
        let entries = db.recorder().unwrap().entries_for("m").unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].region, "[0:4,0:4]");
        assert_eq!(entries[0].count, 2);
    }

    #[test]
    fn save_writes_out_every_buffered_access() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let db = Database::create_dir(dir.path()).unwrap();
        db.create_object(
            "m",
            MddType::new(CellType::of::<u32>(), "[0:*,0:*]".parse().unwrap()),
            Scheme::Aligned(AlignedTiling::regular(2, 1024)),
        )
        .unwrap();
        db.insert(
            "m",
            &Array::from_fn("[0:19,0:19]".parse().unwrap(), |p| p[0] as u32).unwrap(),
        )
        .unwrap();
        for i in 0..40 {
            let region: Domain = format!("[{}:{},0:4]", i % 20, i % 20).parse().unwrap();
            db.range_query("m", &region).unwrap();
        }
        db.save(dir.path()).unwrap();
        // The database stays open: only the save can have written the
        // buffered lines out for a second reader of the file.
        let other = AccessRecorder::open(dir.path().join(ACCESS_LOG_FILE)).unwrap();
        let entries = other.entries_for("m").unwrap();
        assert_eq!(entries.len(), 20);
        assert!(entries.iter().all(|e| e.count == 2));
        drop(db);
    }

    #[test]
    fn condensers_reach_the_persistent_access_log() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let db = Database::create_dir(dir.path()).unwrap();
        db.create_object(
            "m",
            MddType::new(CellType::of::<u32>(), "[0:*,0:*]".parse().unwrap()),
            Scheme::Aligned(AlignedTiling::regular(2, 1024)),
        )
        .unwrap();
        db.insert(
            "m",
            &Array::from_fn("[0:19,0:19]".parse().unwrap(), |p| p[0] as u32).unwrap(),
        )
        .unwrap();
        let region: Domain = "[2:7,3:9]".parse().unwrap();
        db.aggregate("m", &region, AggKind::Sum).unwrap();
        db.aggregate("m", &region, AggKind::CountNonDefault)
            .unwrap();
        db.save(dir.path()).unwrap();
        let other = AccessRecorder::open(dir.path().join(ACCESS_LOG_FILE)).unwrap();
        let entries = other.entries_for("m").unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].region, region.to_string());
        assert_eq!(entries[0].count, 2);
        drop(db);
    }

    #[test]
    fn auto_retile_from_log_requires_recorder() {
        let db = Database::in_memory().unwrap();
        db.create_object(
            "m",
            MddType::new(CellType::of::<u32>(), "[0:*,0:*]".parse().unwrap()),
            Scheme::Aligned(AlignedTiling::regular(2, 1024)),
        )
        .unwrap();
        db.insert(
            "m",
            &Array::from_fn("[0:9,0:9]".parse().unwrap(), |p| p[1] as u32).unwrap(),
        )
        .unwrap();
        assert!(matches!(
            db.auto_retile_from_log("m", 0, 1, 4096),
            Err(EngineError::NoAccessRecorder)
        ));
        // Unknown object is reported first even without a recorder.
        assert!(matches!(
            db.auto_retile_from_log("nope", 0, 1, 4096),
            Err(EngineError::UnknownObject(_))
        ));
    }

    #[test]
    fn auto_retile_from_recorded_log_adapts_tiling() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let db = Database::create_dir(dir.path()).unwrap();
        db.create_object(
            "m",
            MddType::new(CellType::of::<u32>(), "[0:*,0:*]".parse().unwrap()),
            Scheme::Aligned(AlignedTiling::regular(2, 4096)),
        )
        .unwrap();
        let data = Array::from_fn("[0:99,0:99]".parse().unwrap(), |p| {
            (p[0] * 100 + p[1]) as u32
        })
        .unwrap();
        db.insert("m", &data).unwrap();
        let hot: Domain = "[10:29,10:29]".parse().unwrap();
        for _ in 0..8 {
            db.range_query("m", &hot).unwrap();
        }
        let stats = db.auto_retile_from_log("m", 0, 4, 64 * 1024).unwrap();
        assert!(stats.tiles_after > 0);
        // The hot region is now exactly one tile: no wasted cells.
        let q = db.range_query("m", &hot).unwrap();
        assert_eq!(q.array, data.extract(&hot).unwrap());
        assert_eq!(q.stats.cells_processed, hot.cells());
        assert_eq!(q.stats.tiles_read, 1);
    }

    #[test]
    fn open_missing_dir_fails_cleanly() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let missing = dir.path().join("nope");
        assert!(matches!(
            Database::open_dir(&missing),
            Err(EngineError::Catalog(_))
        ));
    }

    #[test]
    fn reopened_database_accepts_new_inserts() {
        let dir = tilestore_testkit::tempdir().unwrap();
        {
            let db = Database::create_dir(dir.path()).unwrap();
            db.create_object(
                "g",
                MddType::new(CellType::of::<u8>(), "[0:*,0:*]".parse().unwrap()),
                Scheme::Aligned(AlignedTiling::regular(2, 512)),
            )
            .unwrap();
            db.insert(
                "g",
                &Array::filled("[0:9,0:9]".parse().unwrap(), &[1]).unwrap(),
            )
            .unwrap();
            db.save(dir.path()).unwrap();
        }
        let db = Database::open_dir(dir.path()).unwrap();
        db.insert(
            "g",
            &Array::filled("[20:29,0:9]".parse().unwrap(), &[2]).unwrap(),
        )
        .unwrap();
        let q = db.range_query("g", &"[0:29,0:9]".parse().unwrap()).unwrap();
        assert_eq!(q.array.get::<u8>(&Point::from_slice(&[5, 5])).unwrap(), 1);
        assert_eq!(q.array.get::<u8>(&Point::from_slice(&[25, 5])).unwrap(), 2);
        assert_eq!(q.array.get::<u8>(&Point::from_slice(&[15, 5])).unwrap(), 0);
    }

    #[test]
    fn save_with_live_snapshot_excludes_retired_blobs() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let dom: Domain = "[0:29,0:29]".parse().unwrap();
        let data = Array::from_fn(dom.clone(), |p| (p[0] * 7 + p[1]) as u32).unwrap();
        let db = Database::create_dir(dir.path()).unwrap();
        db.create_object(
            "m",
            MddType::new(CellType::of::<u32>(), "[0:*,0:*]".parse().unwrap()),
            Scheme::Aligned(AlignedTiling::regular(2, 1024)),
        )
        .unwrap();
        db.insert("m", &data).unwrap();
        db.save(dir.path()).unwrap();

        // Pin a snapshot, retile underneath it, and commit while the old
        // tiles are still alive for the snapshot.
        let snap = db.begin_read();
        db.retile("m", Scheme::Aligned(AlignedTiling::regular(2, 4096)))
            .unwrap();
        db.save(dir.path()).unwrap();

        // The snapshot still reads the old tiles from memory...
        let q = snap.range_query("m", &dom).unwrap();
        assert_eq!(q.array, data);
        // ...but the durable catalog only references the new ones, with
        // the retired blobs' pages exported as free space: fsck is clean.
        let report = fsck(dir.path()).unwrap();
        assert!(report.is_clean(), "dirty: {report}");
        drop(snap);

        let db = Database::open_dir(dir.path()).unwrap();
        let q = db.range_query("m", &dom).unwrap();
        assert_eq!(q.array, data);
    }
}
