//! Stores written by older versions open, and opening cleans them up.
//!
//! Older versions kept a second, value-bitmap index per object in its own
//! blob and named it in the catalog (`"value_index_blob"` on the object).
//! Every blob in the directory is now a tile of exactly one object: open
//! deletes the blob no tile references, the next commit frees its pages,
//! and predicate reads prune exactly as before.

use std::fs;

use tilestore::engine::{fsck, CellPredicate, PredOp, CATALOG_FILE};
use tilestore::{AlignedTiling, Array, CellType, Database, DefDomain, Domain, MddType, Scheme};
use tilestore_testkit::Json;

/// Adds a `"value_index_blob": id` member to the first object of a catalog.
fn name_value_index_blob(catalog: &mut Json, id: u64) {
    let Json::Object(fields) = catalog else {
        panic!("catalog is not an object");
    };
    let (_, objects) = fields.iter_mut().find(|(k, _)| k == "objects").unwrap();
    let Json::Array(objects) = objects else {
        panic!("objects is not an array");
    };
    let Json::Object(object) = &mut objects[0] else {
        panic!("object is not an object");
    };
    object.push(("value_index_blob".to_string(), Json::UInt(id)));
}

#[test]
fn a_value_index_blob_is_freed_on_open_and_pruning_is_unchanged() {
    let dir = tilestore_testkit::tempdir().unwrap();
    let region: Domain = "[0:63,0:63]".parse().unwrap();
    let pred = CellPredicate {
        op: PredOp::Ge,
        literal: 3000.0,
    };
    let (cells, pruned, legacy) = {
        let db = Database::create_dir(dir.path()).unwrap();
        db.create_object(
            "cube",
            MddType::new(CellType::of::<u32>(), DefDomain::unlimited(2).unwrap()),
            Scheme::Aligned(AlignedTiling::regular(2, 1024)),
        )
        .unwrap();
        db.insert(
            "cube",
            &Array::from_fn(region.clone(), |p| (p[0] * 64 + p[1]) as u32).unwrap(),
        )
        .unwrap();
        // The blob those versions wrote: the tiles' bin masks under their
        // OR, as compact JSON.
        let masks: Vec<u64> = db
            .object("cube")
            .unwrap()
            .tiles
            .iter()
            .map(|t| t.synopsis.unwrap().bins())
            .collect();
        let bytes = Json::obj(vec![
            ("summary", Json::UInt(masks.iter().fold(0, |a, m| a | m))),
            (
                "tile_masks",
                Json::Array(masks.into_iter().map(Json::UInt).collect()),
            ),
        ])
        .to_string_compact();
        let legacy = db.blob_store().create(bytes.as_bytes()).unwrap();
        db.save(dir.path()).unwrap();
        let q = db.range_query_where("cube", &region, Some(&pred)).unwrap();
        (q.array, q.stats.tiles_pruned, legacy)
    };
    assert!(pruned > 0, "the predicate must prune some tiles");

    let path = dir.path().join(CATALOG_FILE);
    let mut catalog = Json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
    name_value_index_blob(&mut catalog, legacy.0);
    fs::write(&path, catalog.to_string_pretty()).unwrap();
    let report = fsck(dir.path()).unwrap();
    assert_eq!(report.unreferenced_blobs, vec![legacy.0], "{report}");
    assert!(!report.is_clean());

    let db = Database::open_dir(dir.path()).unwrap();
    assert!(
        db.blob_store().blob_len(legacy).is_err(),
        "legacy blob kept"
    );
    assert_eq!(
        db.blob_store().blob_count(),
        db.object("cube").unwrap().tile_count()
    );
    let q = db.range_query_where("cube", &region, Some(&pred)).unwrap();
    assert_eq!(q.array, cells);
    assert_eq!(q.stats.tiles_pruned, pruned);

    db.save(dir.path()).unwrap();
    let report = fsck(dir.path()).unwrap();
    assert!(report.is_clean(), "{report}");
    assert!(!fs::read_to_string(&path)
        .unwrap()
        .contains("value_index_blob"));
}
