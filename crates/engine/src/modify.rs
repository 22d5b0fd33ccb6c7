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

use tilestore_compress::CellContext;
use tilestore_geometry::{difference, uncovered, Domain};
use tilestore_index::RPlusTree;
use tilestore_storage::{BlobId, PageStore};
use tilestore_tiling::TilingStrategy;

use crate::array::Array;
use crate::database::Database;
use crate::error::{EngineError, Result};
use crate::mdd::TileMeta;
use crate::snapshot::{read_tile_payload, WriteReceipt};
use crate::synopsis::TileSynopsis;

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
        let hits = meta.index.search(array.domain()).hits;
        let cell_type = &meta.mdd_type.cell;
        let ctx = CellContext {
            cell_size,
            default: &cell_type.default,
        };
        let mut stats = UpdateStats::default();
        let mut covered: Vec<Domain> = Vec::with_capacity(hits.len());
        let mut new_meta = (**meta).clone();
        let mut retired: Vec<BlobId> = Vec::new();

        // Rewrite intersected tiles copy-on-write.
        for pos in &hits {
            let old = &meta.tiles[*pos as usize];
            let (payload, _) = read_tile_payload(self.blob_store(), meta, old)?;
            let mut tile = Array::from_bytes(old.domain.clone(), cell_size, payload)?;
            let updated = tile.paste(array)?;
            let (stream, scan) =
                tilestore_compress::compress_with_scan(&meta.compression, tile.bytes(), &ctx)
                    .map_err(|e| EngineError::Catalog(format!("compression failed: {e}")))?;
            new_meta.tiles[*pos as usize].blob = self.blob_store().create(&stream)?;
            new_meta.tiles[*pos as usize].synopsis =
                Some(TileSynopsis::from_scan(cell_type, tile.bytes(), scan));
            retired.push(old.blob);
            stats.tiles_rewritten += 1;
            stats.cells_updated += updated;
            covered.push(old.domain.clone());
        }

        // Tile and store the previously uncovered remainder.
        let remainder = uncovered(array.domain(), &covered)?;
        for piece in remainder {
            let spec = meta.scheme.partition(&piece, cell_size)?;
            for tile_domain in spec.tiles() {
                let tile = array.extract(tile_domain)?;
                let (stream, scan) =
                    tilestore_compress::compress_with_scan(&meta.compression, tile.bytes(), &ctx)
                        .map_err(|e| EngineError::Catalog(format!("compression failed: {e}")))?;
                let blob = self.blob_store().create(&stream)?;
                let at = new_meta.tiles.len() as u64;
                new_meta.tiles.push(TileMeta {
                    domain: tile_domain.clone(),
                    blob,
                    synopsis: Some(TileSynopsis::from_scan(cell_type, tile.bytes(), scan)),
                });
                new_meta.index.insert(tile_domain.clone(), at)?;
                stats.tiles_created += 1;
            }
        }

        // Grow the current domain by closure.
        new_meta.current_domain = Some(match new_meta.current_domain.take() {
            Some(cur) => cur.hull(array.domain())?,
            None => array.domain().clone(),
        });
        retired.extend(self.refresh_value_index(&mut new_meta)?);
        let epoch = self.install_object(&cat, name, new_meta, retired);
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
        let cell_type = &meta.mdd_type.cell;
        let ctx = CellContext {
            cell_size,
            default: &cell_type.default,
        };
        let mut stats = DeleteStats::default();
        let mut drop_positions: Vec<u64> = Vec::new();
        let mut replacement_tiles: Vec<TileMeta> = Vec::new();
        let mut retired: Vec<BlobId> = Vec::new();

        for pos in &hits {
            let old = &meta.tiles[*pos as usize];
            if region.contains_domain(&old.domain) {
                // Whole tile vanishes.
                retired.push(old.blob);
                stats.tiles_dropped += 1;
                stats.cells_removed += old.domain.cells();
                drop_positions.push(*pos);
                continue;
            }
            // Border tile: keep only the remainder boxes, each in a fresh
            // BLOB; the original stays readable for live snapshots.
            let (payload, _) = read_tile_payload(self.blob_store(), meta, old)?;
            let tile = Array::from_bytes(old.domain.clone(), cell_size, payload)?;
            for piece in difference(&old.domain, region) {
                let part = tile.extract(&piece)?;
                let (stream, scan) =
                    tilestore_compress::compress_with_scan(&meta.compression, part.bytes(), &ctx)
                        .map_err(|e| EngineError::Catalog(format!("compression failed: {e}")))?;
                replacement_tiles.push(TileMeta {
                    domain: piece,
                    blob: self.blob_store().create(&stream)?,
                    synopsis: Some(TileSynopsis::from_scan(cell_type, part.bytes(), scan)),
                });
            }
            retired.push(old.blob);
            stats.tiles_split += 1;
            stats.cells_removed += old.domain.intersection(region).map_or(0, |i| i.cells());
            drop_positions.push(*pos);
        }

        if drop_positions.is_empty() {
            return Ok(WriteReceipt {
                stats,
                epoch: cat.version,
            });
        }

        // Rebuild the tile list and index without the dropped tiles, with
        // the replacements appended; the current domain is the hull of what
        // remains (shrinkage).
        let mut kept: Vec<TileMeta> = meta
            .tiles
            .iter()
            .enumerate()
            .filter(|(i, _)| !drop_positions.contains(&(*i as u64)))
            .map(|(_, t)| t.clone())
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
        retired.extend(self.refresh_value_index(&mut new_meta)?);
        let epoch = self.install_object(&cat, name, new_meta, retired);
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
