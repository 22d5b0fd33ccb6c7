//! Modification of stored cells: updates and removal of regions.
//!
//! §2: storage management must support "sparsity, growth and shrinkage of
//! arrays corresponding to the insertion and removal of data".
//!
//! * [`Database::update`] overwrites cells — covered cells are rewritten in
//!   their tiles; newly-touched (previously uncovered) areas are tiled by
//!   the object's scheme and stored, so an update over a partially covered
//!   region both modifies and grows the object;
//! * [`Database::delete_region`] removes cells — tiles fully inside the
//!   region are dropped; border tiles are split into their remainder boxes
//!   (arbitrary tiling makes the resulting non-aligned layout legal). The
//!   current domain *shrinks* to the hull of the remaining tiles.
//!
//! Both are copy-on-write: a rewritten or split tile gets a *new* BLOB and
//! the old one is retired, so snapshots begun before the write keep reading
//! the old cells (never an in-place overwrite a reader could tear on).

use tilestore_geometry::{copy_region, difference, uncovered, Domain};
use tilestore_index::RPlusTree;
use tilestore_storage::{BlobId, PageStore};
use tilestore_tiling::TilingStrategy;

use crate::array::Array;
use crate::database::Database;
use crate::error::{EngineError, Result};
use crate::mdd::TileMeta;
use crate::plan::Plan;
use crate::snapshot::WriteReceipt;

/// Statistics of an [`Database::update`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Existing tiles whose cells were rewritten.
    pub tiles_rewritten: u64,
    /// New tiles created for previously uncovered areas.
    pub tiles_created: u64,
    /// Cells overwritten in existing tiles.
    pub cells_updated: u64,
}

/// Statistics of a [`Database::delete_region`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeleteStats {
    /// Tiles removed entirely.
    pub tiles_dropped: u64,
    /// Border tiles split into remainder boxes.
    pub tiles_split: u64,
    /// Cells removed from storage.
    pub cells_removed: u64,
}

impl<S: PageStore> Database<S> {
    /// Overwrites the cells of `array.domain()` with `array`'s values.
    ///
    /// Unlike [`Database::insert`], overlap with existing tiles is the
    /// *point*: covered cells are rewritten (each touched tile is re-encoded
    /// into a fresh BLOB under the object's compression policy); uncovered
    /// parts of the region are tiled by the object's scheme and added. The
    /// current domain grows by closure as with inserts.
    ///
    /// # Errors
    /// Type/domain validation errors, tiling and storage errors.
    pub fn update(&self, name: &str, array: &Array) -> Result<WriteReceipt<UpdateStats>> {
        let _w = self.lock_writer();
        let cat = self.current_catalog();
        let meta = &cat.entry(name)?.meta;
        let (cell_size, region) = (meta.cell_size(), array.domain());
        if array.cell_size() != cell_size {
            return Err(EngineError::CellSizeMismatch {
                expected: cell_size,
                got: array.cell_size(),
            });
        }
        if !meta.mdd_type.definition.admits(region) {
            return Err(EngineError::OutsideDefinitionDomain {
                domain: region.to_string(),
                definition: meta.mdd_type.definition.to_string(),
            });
        }
        let hits = meta.index.search(region).hits;
        let mut stats = UpdateStats::default();
        let covered: Vec<Domain> = hits
            .iter()
            .map(|&pos| meta.tiles[pos as usize].domain.clone())
            .collect();
        let mut new_meta = (**meta).clone();
        let staged = self.stage();
        let mut retired: Vec<BlobId> = Vec::new();

        // Rewrite intersected tiles copy-on-write. A tile inside the array
        // is overwritten whole, so it is encoded straight from the array;
        // only the border tiles are read.
        let mut rewrite = |pos: u64, cells: &[u8], updated: u64| -> Result<()> {
            let (blob, synopsis, _) = staged.encode(meta, cells)?;
            let tile = &mut new_meta.tiles[pos as usize];
            retired.push(tile.blob);
            tile.blob = blob;
            tile.synopsis = Some(synopsis);
            stats.tiles_rewritten += 1;
            stats.cells_updated += updated;
            Ok(())
        };
        let (inside, border): (Vec<u64>, Vec<u64>) = hits
            .iter()
            .partition(|&&pos| region.contains_domain(&meta.tiles[pos as usize].domain));
        for pos in inside {
            let tile = &meta.tiles[pos as usize].domain;
            rewrite(pos, array.extract(tile)?.bytes(), tile.cells())?;
        }
        let plan = Plan::over_tiles(self.blob_store(), meta, region, border, 0)?;
        plan.fetch(self.blob_store(), |pos, cells| {
            let tile = &meta.tiles[pos as usize].domain;
            let overlap = tile.intersection(region).expect("an intersecting tile");
            let cells = cells.bytes_mut();
            let updated = copy_region(region, array.bytes(), tile, cells, &overlap, cell_size)?;
            rewrite(pos, cells, updated)
        })?;

        // Tile and store the previously uncovered remainder.
        let remainder = uncovered(region, &covered)?;
        for piece in remainder {
            let spec = meta.scheme.partition(&piece, cell_size)?;
            for tile_domain in spec.tiles() {
                let (blob, synopsis, _) =
                    staged.encode(meta, array.extract(tile_domain)?.bytes())?;
                let at = new_meta.tiles.len() as u64;
                new_meta.tiles.push(TileMeta {
                    domain: tile_domain.clone(),
                    blob,
                    synopsis: Some(synopsis),
                });
                new_meta.index.insert(tile_domain.clone(), at)?;
                stats.tiles_created += 1;
            }
        }

        // Grow the current domain by closure.
        new_meta.current_domain = Some(match new_meta.current_domain.take() {
            Some(cur) => cur.hull(region)?,
            None => region.clone(),
        });
        let epoch = self.install_object(&cat, name, new_meta, staged, retired);
        Ok(WriteReceipt { stats, epoch })
    }

    /// Removes every stored cell inside `region`. Reading the region
    /// afterwards returns the default value; the current domain shrinks to
    /// the hull of the remaining tiles (`None` when nothing remains).
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`]; storage errors.
    pub fn delete_region(&self, name: &str, region: &Domain) -> Result<WriteReceipt<DeleteStats>> {
        let _w = self.lock_writer();
        let cat = self.current_catalog();
        let meta = &cat.entry(name)?.meta;
        let cell_size = meta.cell_size();
        let hits = meta.index.search(region).hits;
        let mut stats = DeleteStats::default();
        if hits.is_empty() {
            return Ok(WriteReceipt {
                stats,
                epoch: cat.version,
            });
        }
        // Every intersected tile leaves the object: a tile inside the
        // region vanishes, a border tile is replaced by its remainder.
        let mut dropped = vec![false; meta.tiles.len()];
        let mut border: Vec<u64> = Vec::new();
        let mut retired: Vec<BlobId> = Vec::with_capacity(hits.len());
        for pos in hits {
            let old = &meta.tiles[pos as usize];
            dropped[pos as usize] = true;
            retired.push(old.blob);
            if region.contains_domain(&old.domain) {
                stats.tiles_dropped += 1;
                stats.cells_removed += old.domain.cells();
            } else {
                border.push(pos);
                stats.tiles_split += 1;
                stats.cells_removed += old.domain.intersection(region).map_or(0, |i| i.cells());
            }
        }

        // Border tiles keep only their remainder boxes, each in a fresh
        // BLOB; the originals stay readable for live snapshots.
        let mut replacement_tiles: Vec<TileMeta> = Vec::new();
        let staged = self.stage();
        let mut part = Vec::new();
        let plan = Plan::over_tiles(self.blob_store(), meta, region, border, 0)?;
        plan.fetch(self.blob_store(), |pos, cells| {
            let tile = &meta.tiles[pos as usize].domain;
            for piece in difference(tile, region) {
                part.resize(piece.cells() as usize * cell_size, 0);
                cells.paste(tile, &piece, &mut part, &piece, cell_size)?;
                let (blob, synopsis, _) = staged.encode(meta, &part)?;
                replacement_tiles.push(TileMeta {
                    domain: piece,
                    blob,
                    synopsis: Some(synopsis),
                });
            }
            Ok(())
        })?;

        // Rebuild the tile list and index without the dropped tiles, with
        // the replacements appended; the current domain is the hull of what
        // remains (shrinkage).
        let mut kept: Vec<TileMeta> = meta
            .tiles
            .iter()
            .zip(&dropped)
            .filter(|&(_, &dropped)| !dropped)
            .map(|(t, _)| t.clone())
            .collect();
        kept.extend(replacement_tiles);
        let entries: Vec<(Domain, u64)> = kept
            .iter()
            .enumerate()
            .map(|(i, t)| (t.domain.clone(), i as u64))
            .collect();
        let mut new_meta = (**meta).clone();
        new_meta.index = RPlusTree::bulk_load(
            new_meta.mdd_type.dim(),
            tilestore_index::DEFAULT_FANOUT,
            entries,
        )?;
        new_meta.current_domain = kept
            .iter()
            .map(|t| t.domain.clone())
            .reduce(|a, b| a.hull(&b).expect("uniform dimensionality"));
        new_meta.tiles = kept;
        let epoch = self.install_object(&cat, name, new_meta, staged, retired);
        Ok(WriteReceipt { stats, epoch })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::celltype::CellType;
    use crate::mdd::MddType;
    use tilestore_geometry::{DefDomain, Point};
    use tilestore_tiling::{AlignedTiling, Scheme};

    fn d(s: &str) -> Domain {
        s.parse().unwrap()
    }

    fn setup() -> Database<tilestore_storage::MemPageStore> {
        let db = Database::in_memory().unwrap();
        db.create_object(
            "m",
            MddType::new(CellType::of::<u16>(), DefDomain::unlimited(2).unwrap()),
            Scheme::Aligned(AlignedTiling::regular(2, 512)),
        )
        .unwrap();
        db.insert(
            "m",
            &Array::from_fn(d("[0:31,0:31]"), |p| (p[0] * 32 + p[1]) as u16).unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn update_overwrites_covered_cells() {
        let db = setup();
        let patch = Array::filled(d("[10:20,10:20]"), &9999u16.to_le_bytes()).unwrap();
        let stats = db.update("m", &patch).unwrap();
        assert!(stats.tiles_rewritten > 0);
        assert_eq!(stats.tiles_created, 0);
        assert_eq!(stats.cells_updated, 121);
        let q = db.range_query("m", &d("[0:31,0:31]")).unwrap();
        assert_eq!(
            q.array.get::<u16>(&Point::from_slice(&[15, 15])).unwrap(),
            9999
        );
        assert_eq!(
            q.array.get::<u16>(&Point::from_slice(&[5, 5])).unwrap(),
            5 * 32 + 5
        );
    }

    #[test]
    fn update_reads_only_the_tiles_it_overwrites_in_part() {
        let db = setup();
        let pages = |pos: usize| {
            let blob = db.object("m").unwrap().tiles[pos].blob;
            db.blob_store().blob_placement(blob).unwrap().pages
        };
        let tile_at = |p: &[i64]| {
            let point = Point::from_slice(p);
            let meta = db.object("m").unwrap();
            (0..meta.tiles.len())
                .find(|&i| meta.tiles[i].domain.contains_point(&point))
                .unwrap()
        };
        // The 16×16 tiles of rows 0..=15: overwritten whole, read not at all.
        let before = db.io_stats().snapshot();
        let aligned = Array::filled(d("[0:15,0:31]"), &1u16.to_le_bytes()).unwrap();
        let stats = db.update("m", &aligned).unwrap();
        assert_eq!((stats.tiles_rewritten, stats.cells_updated), (2, 512));
        assert_eq!(db.io_stats().snapshot().since(&before).pages_read, 0);
        // One whole tile and one border tile: only the border tile is read.
        let before = db.io_stats().snapshot();
        let partial = Array::filled(d("[0:20,0:15]"), &2u16.to_le_bytes()).unwrap();
        let border = tile_at(&[20, 0]);
        let border_pages = pages(border);
        let stats = db.update("m", &partial).unwrap();
        assert_eq!((stats.tiles_rewritten, stats.cells_updated), (2, 21 * 16));
        let io = db.io_stats().snapshot().since(&before);
        assert_eq!((io.blobs_read, io.pages_read), (1, border_pages));
        let q = db.range_query("m", &d("[0:31,0:31]")).unwrap();
        for p in tilestore_geometry::PointIter::new(d("[0:31,0:31]")) {
            let want = if d("[0:20,0:15]").contains_point(&p) {
                2
            } else if p[0] <= 15 {
                1
            } else {
                (p[0] * 32 + p[1]) as u16
            };
            assert_eq!(q.array.get::<u16>(&p).unwrap(), want, "cell {p}");
        }
    }

    #[test]
    fn update_grows_into_uncovered_space() {
        let db = setup();
        // Patch straddling coverage: half over existing cells, half beyond.
        let patch = Array::filled(d("[24:39,0:15]"), &7u16.to_le_bytes()).unwrap();
        let stats = db.update("m", &patch).unwrap();
        assert!(stats.tiles_rewritten > 0);
        assert!(stats.tiles_created > 0, "uncovered part must be stored");
        assert_eq!(
            db.object("m").unwrap().current_domain,
            Some(d("[0:39,0:31]"))
        );
        let q = db.range_query("m", &d("[24:39,0:15]")).unwrap();
        assert!(q.array.to_cells::<u16>().unwrap().iter().all(|&c| c == 7));
    }

    #[test]
    fn update_validates_type_and_domain() {
        let db = setup();
        let wrong = Array::filled(d("[0:1,0:1]"), &[1u8]).unwrap();
        assert!(matches!(
            db.update("m", &wrong),
            Err(EngineError::CellSizeMismatch { .. })
        ));
        assert!(db.update("nope", &wrong).is_err());
    }

    #[test]
    fn delete_whole_tiles_and_read_default() {
        let db = setup();
        let before_blobs = db.blob_store().blob_count();
        let stats = db.delete_region("m", &d("[0:15,0:15]")).unwrap();
        assert!(stats.tiles_dropped > 0);
        assert_eq!(stats.cells_removed, 256);
        assert!(db.blob_store().blob_count() < before_blobs + stats.tiles_split as usize * 4);
        let q = db.range_query("m", &d("[0:15,0:15]")).unwrap();
        assert!(q.array.to_cells::<u16>().unwrap().iter().all(|&c| c == 0));
        // Cells outside the deleted region survive.
        let q = db.range_query("m", &d("[16:31,0:31]")).unwrap();
        assert_eq!(
            q.array.get::<u16>(&Point::from_slice(&[20, 20])).unwrap(),
            20 * 32 + 20
        );
    }

    #[test]
    fn delete_splits_border_tiles() {
        let db = setup();
        // A region not aligned to the 16x16 tile grid.
        let region = d("[5:12,5:26]");
        let stats = db.delete_region("m", &region).unwrap();
        assert!(stats.tiles_split > 0);
        assert_eq!(stats.cells_removed, region.cells());
        let q = db.range_query("m", &d("[0:31,0:31]")).unwrap();
        for p in tilestore_geometry::PointIter::new(d("[0:31,0:31]")) {
            let got: u16 = q.array.get(&p).unwrap();
            if region.contains_point(&p) {
                assert_eq!(got, 0, "deleted cell {p} must read default");
            } else {
                assert_eq!(got, (p[0] * 32 + p[1]) as u16, "cell {p} must survive");
            }
        }
    }

    #[test]
    fn delete_shrinks_current_domain() {
        let db = setup();
        db.delete_region("m", &d("[16:31,0:31]")).unwrap();
        assert_eq!(
            db.object("m").unwrap().current_domain,
            Some(d("[0:15,0:31]")),
            "current domain shrinks to the remaining hull"
        );
        // Deleting everything empties the object.
        db.delete_region("m", &d("[0:31,0:31]")).unwrap();
        assert_eq!(db.object("m").unwrap().current_domain, None);
        assert_eq!(db.object("m").unwrap().tile_count(), 0);
        assert_eq!(db.blob_store().blob_count(), 0);
        // And it can be refilled.
        db.insert("m", &Array::filled(d("[0:3,0:3]"), &[1, 0]).unwrap())
            .unwrap();
        assert_eq!(db.object("m").unwrap().current_domain, Some(d("[0:3,0:3]")));
    }

    #[test]
    fn delete_disjoint_region_is_a_noop() {
        let db = setup();
        let before = db.object("m").unwrap().tile_count();
        let receipt = db.delete_region("m", &d("[100:110,100:110]")).unwrap();
        assert_eq!(receipt.stats, DeleteStats::default());
        assert_eq!(db.object("m").unwrap().tile_count(), before);
        // No catalog swap happened: the epoch is unchanged.
        assert_eq!(receipt.epoch, db.begin_read().epoch());
    }

    #[test]
    fn update_then_delete_with_compression() {
        use tilestore_compress::CompressionPolicy;
        let db = setup();
        db.set_compression("m", CompressionPolicy::selective_default())
            .unwrap();
        let patch = Array::filled(d("[8:23,8:23]"), &0xABCDu16.to_le_bytes()).unwrap();
        db.update("m", &patch).unwrap();
        db.delete_region("m", &d("[0:7,0:31]")).unwrap();
        let q = db.range_query("m", &d("[0:31,0:31]")).unwrap();
        assert_eq!(
            q.array.get::<u16>(&Point::from_slice(&[10, 10])).unwrap(),
            0xABCD
        );
        assert_eq!(q.array.get::<u16>(&Point::from_slice(&[3, 3])).unwrap(), 0);
        assert_eq!(
            q.array.get::<u16>(&Point::from_slice(&[30, 3])).unwrap(),
            30 * 32 + 3
        );
    }

    #[test]
    fn snapshot_reads_pre_update_cells() {
        let db = setup();
        let snap = db.begin_read();
        let patch = Array::filled(d("[0:31,0:31]"), &4242u16.to_le_bytes()).unwrap();
        db.update("m", &patch).unwrap();
        // The snapshot still sees the original values; a fresh read sees
        // the patch.
        let old = snap.range_query("m", &d("[3:3,4:4]")).unwrap();
        assert_eq!(
            old.array.get::<u16>(&Point::from_slice(&[3, 4])).unwrap(),
            3 * 32 + 4
        );
        let new = db.range_query("m", &d("[3:3,4:4]")).unwrap();
        assert_eq!(
            new.array.get::<u16>(&Point::from_slice(&[3, 4])).unwrap(),
            4242
        );
    }
}
