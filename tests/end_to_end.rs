//! Cross-crate integration: file-backed databases, mixed object types,
//! persistence, and the full insert/query/retile lifecycle.

use tilestore::{
    AccessRegion, AlignedTiling, Array, AxisPartition, CellType, Database, DefDomain,
    DirectionalTiling, Domain, MddType, Point, Rgb, Scheme, TileConfig,
};

fn d(s: &str) -> Domain {
    s.parse().unwrap()
}

#[test]
fn file_backed_database_full_lifecycle() {
    let dir = tilestore_testkit::tempdir().unwrap();
    let image_dom = d("[0:99,0:99]");
    let video_dom = d("[0:9,0:31,0:31]");

    {
        let db = Database::create_dir(dir.path()).unwrap();

        // Two objects with different dimensionalities and cell types in the
        // same database (the §2 "integrated support" requirement).
        db.create_object(
            "image",
            MddType::new(CellType::of::<u16>(), DefDomain::unlimited(2).unwrap()),
            Scheme::Aligned(AlignedTiling::regular(2, 2048)),
        )
        .unwrap();
        db.create_object(
            "video",
            MddType::new(CellType::of::<Rgb>(), DefDomain::unlimited(3).unwrap()),
            Scheme::Aligned(AlignedTiling::new(
                "[*,1,*]".parse::<TileConfig>().unwrap(),
                4096,
            )),
        )
        .unwrap();

        let image = Array::from_fn(image_dom.clone(), |p| (p[0] * 100 + p[1]) as u16).unwrap();
        db.insert("image", &image).unwrap();
        let video = Array::from_fn(video_dom.clone(), |p| {
            Rgb::new(p[0] as u8, p[1] as u8, p[2] as u8)
        })
        .unwrap();
        db.insert("video", &video).unwrap();

        db.save(dir.path()).unwrap();
    }

    // Reopen and verify both objects.
    let db = Database::open_dir(dir.path()).unwrap();
    assert_eq!(db.object_names(), vec!["image", "video"]);

    let __q = db.range_query("image", &d("[40:59,40:59]")).unwrap();
    let (img, stats) = (__q.array, __q.stats);
    assert_eq!(img.get::<u16>(&Point::from_slice(&[50, 50])).unwrap(), 5050);
    assert!(stats.io.pages_read > 0, "data came from the page file");

    let frame = {
        db.query("video", &AccessRegion::Section(vec![Some(3), None, None]))
            .unwrap()
    }
    .array;
    assert_eq!(frame.domain(), &d("[0:31,0:31]"));
    assert_eq!(
        frame.get::<Rgb>(&Point::from_slice(&[5, 6])).unwrap(),
        Rgb::new(3, 5, 6)
    );
}

#[test]
fn retile_on_reopened_database() {
    let dir = tilestore_testkit::tempdir().unwrap();
    let dom = d("[1:100,1:40]");
    let data = Array::from_fn(dom.clone(), |p| (p[0] * 41 + p[1]) as u32).unwrap();
    {
        let db = Database::create_dir(dir.path()).unwrap();
        db.create_object(
            "grid",
            MddType::new(CellType::of::<u32>(), DefDomain::unlimited(2).unwrap()),
            Scheme::Aligned(AlignedTiling::regular(2, 1024)),
        )
        .unwrap();
        db.insert("grid", &data).unwrap();
        db.save(dir.path()).unwrap();
    }
    let db = Database::open_dir(dir.path()).unwrap();
    let before = db.object("grid").unwrap().tile_count();
    db.retile(
        "grid",
        Scheme::Directional(DirectionalTiling::new(
            vec![AxisPartition::new(0, vec![1, 50, 100])],
            16 * 1024,
        )),
    )
    .unwrap();
    assert_ne!(db.object("grid").unwrap().tile_count(), before);
    let out = { db.range_query("grid", &dom).unwrap() }.array;
    assert_eq!(out, data);
    // Persist the retiled state and read it back once more.
    db.save(dir.path()).unwrap();
    let db2 = Database::open_dir(dir.path()).unwrap();
    let out2 = { db2.range_query("grid", &dom).unwrap() }.array;
    assert_eq!(out2, data);
}

#[test]
fn gradual_growth_over_unlimited_axis() {
    // A time series growing along an unlimited axis, as §3's unlimited
    // definition domains are designed for.
    let db = Database::in_memory().unwrap();
    db.create_object(
        "series",
        MddType::new(
            CellType::of::<f64>(),
            "[0:*,0:9]".parse::<DefDomain>().unwrap(),
        ),
        Scheme::Aligned(AlignedTiling::new(
            "[*,1]".parse::<TileConfig>().unwrap(),
            4096,
        )),
    )
    .unwrap();

    // Append ten daily batches of 100 time steps each.
    for batch in 0..10i64 {
        let lo = batch * 100;
        let dom = Domain::from_bounds(&[(lo, lo + 99), (0, 9)]).unwrap();
        let batch_data = Array::from_fn(dom, |p| (p[0] as f64) + (p[1] as f64) / 10.0).unwrap();
        db.insert("series", &batch_data).unwrap();
    }
    let obj = db.object("series").unwrap();
    assert_eq!(obj.current_domain, Some(d("[0:999,0:9]")));

    // A query spanning several batches stitches them seamlessly.
    let out = { db.range_query("series", &d("[250:749,3:5]")).unwrap() }.array;
    assert_eq!(
        out.get::<f64>(&Point::from_slice(&[500, 4])).unwrap(),
        500.4
    );
    assert_eq!(out.domain().cells(), 500 * 3);

    // Growth below the definition domain's lower bound is rejected.
    let bad = Array::from_fn(d("[-10:-1,0:9]"), |_| 0.0f64).unwrap();
    assert!(db.insert("series", &bad).is_err());
}

#[test]
fn buffer_pooled_database_serves_hot_queries_from_cache() {
    use tilestore::{BufferPool, MemPageStore};

    let store = MemPageStore::new(4096).unwrap();
    let pool = BufferPool::new(store, 256).unwrap();
    let db = Database::with_store(pool);
    db.create_object(
        "img",
        MddType::new(CellType::of::<u8>(), DefDomain::unlimited(2).unwrap()),
        Scheme::Aligned(AlignedTiling::regular(2, 4096)),
    )
    .unwrap();
    db.insert(
        "img",
        &Array::from_fn(d("[0:127,0:127]"), |p| (p[0] ^ p[1]) as u8).unwrap(),
    )
    .unwrap();

    let q = d("[10:50,10:50]");
    db.range_query("img", &q).unwrap();
    let cold = db.blob_store().page_store().stats().snapshot();
    let own = db.range_query("img", &q).unwrap().stats.io;
    let warm = db.blob_store().page_store().stats().snapshot().since(&cold);
    assert_eq!(warm.cache_misses, 0, "second read is fully cached");
    assert!(warm.cache_hits > 0);
    // The query's own counts are exactly the pool's movement across it.
    assert_eq!(own.cache_hits, warm.cache_hits, "{own:?}");
    assert_eq!(own.cache_misses, warm.cache_misses, "{own:?}");
}

#[test]
fn concurrent_readers_share_one_database() {
    // Queries take &self; the storage layer is internally synchronized, so
    // many threads may read one database concurrently.
    use std::sync::Arc;

    let db = Database::in_memory().unwrap();
    db.create_object(
        "grid",
        MddType::new(CellType::of::<u32>(), DefDomain::unlimited(2).unwrap()),
        Scheme::Aligned(AlignedTiling::regular(2, 2048)),
    )
    .unwrap();
    let dom = d("[0:127,0:127]");
    let data = Array::from_fn(dom.clone(), |p| (p[0] * 128 + p[1]) as u32).unwrap();
    db.insert("grid", &data).unwrap();
    let db = Arc::new(db);

    std::thread::scope(|scope| {
        for t in 0..8i64 {
            let db = Arc::clone(&db);
            let data = &data;
            scope.spawn(move || {
                for k in 0..16i64 {
                    let lo = (t * 16 + k) % 100;
                    let region = Domain::from_bounds(&[(lo, lo + 27), (lo, lo + 27)]).unwrap();
                    let out = { db.range_query("grid", &region).unwrap() }.array;
                    assert_eq!(out, data.extract(&region).unwrap());
                    let (sum, _) = db
                        .aggregate("grid", &region, tilestore::AggKind::Sum)
                        .unwrap();
                    assert!(sum.as_number().unwrap() > 0.0);
                }
            });
        }
    });
}

#[test]
fn all_strategies_roundtrip_same_seeded_dataset() {
    // One seeded dataset, four tiling strategies: ingest → tile → store
    // (file-backed) → range-query → update → reopen must agree cell-for-cell
    // across every strategy.
    use tilestore::{AccessRecord, AreasOfInterestTiling, StatisticTiling};

    let dom = d("[0:79,0:59]");
    let mut rng = tilestore_testkit::Rng::seed_from_u64(0x7113_5704);
    let data = Array::from_fn(dom.clone(), |_| rng.gen_range(0u32..10_000)).unwrap();

    let hot_a = d("[10:39,5:24]");
    let hot_b = d("[50:79,30:59]");
    let schemes: Vec<(&str, Scheme)> = vec![
        (
            "aligned",
            Scheme::Aligned(AlignedTiling::regular(2, 4 * 1024)),
        ),
        (
            "directional",
            Scheme::Directional(DirectionalTiling::new(
                vec![
                    AxisPartition::new(0, vec![0, 25, 55, 79]),
                    AxisPartition::new(1, vec![0, 30, 59]),
                ],
                8 * 1024,
            )),
        ),
        (
            "areas_of_interest",
            Scheme::AreasOfInterest(AreasOfInterestTiling::new(
                vec![hot_a.clone(), hot_b.clone()],
                8 * 1024,
            )),
        ),
        (
            "statistic",
            Scheme::Statistic(StatisticTiling::new(
                vec![
                    AccessRecord::new(hot_a.clone(), 9),
                    AccessRecord::new(hot_b.clone(), 7),
                    AccessRecord::new(d("[0:9,40:49]"), 2),
                ],
                8,
                3,
                8 * 1024,
            )),
        ),
    ];

    // The update applied after the first reopen, and the shadow model every
    // strategy must converge to.
    let patch_dom = d("[20:59,15:44]");
    let patch = Array::from_fn(patch_dom, |p| (p[0] * 1000 + p[1]) as u32).unwrap();
    let mut shadow = data.clone();
    shadow.paste(&patch).unwrap();

    let queries = [d("[0:79,0:59]"), hot_a.clone(), d("[15:64,10:49]")];
    for (name, scheme) in schemes {
        let dir = tilestore_testkit::tempdir().unwrap();
        {
            let db = Database::create_dir(dir.path()).unwrap();
            db.create_object(
                "cube",
                MddType::new(CellType::of::<u32>(), DefDomain::unlimited(2).unwrap()),
                scheme,
            )
            .unwrap();
            db.insert("cube", &data).unwrap();
            db.save(dir.path()).unwrap();
        }

        // Reopen: every query region reads back the ingested cells exactly.
        let db = Database::open_dir(dir.path()).unwrap();
        assert!(db.object("cube").unwrap().tile_count() >= 1, "{name}");
        for q in &queries {
            let out = { db.range_query("cube", q).unwrap() }.array;
            assert_eq!(out, data.extract(q).unwrap(), "{name}: query {q}");
        }

        // Update, persist, reopen once more: the stored object matches the
        // shadow model under every strategy.
        db.update("cube", &patch).unwrap();
        db.save(dir.path()).unwrap();
        let db = Database::open_dir(dir.path()).unwrap();
        for q in &queries {
            let out = { db.range_query("cube", q).unwrap() }.array;
            assert_eq!(out, shadow.extract(q).unwrap(), "{name}: post-update {q}");
        }
    }
}

#[test]
fn observe_then_retile_from_recorded_log_reduces_io() {
    // The paper's §5.2 feedback loop, end to end through the engine's OWN
    // recorded access log (no synthetic log): run a clustered workload on a
    // file-backed database, re-tile from the log the engine wrote, and the
    // hot region's tile reads and model t_o must drop.
    use tilestore::CostModel;

    let dir = tilestore_testkit::tempdir().unwrap();
    let dom = d("[0:99,0:99]");
    let data = Array::from_fn(dom.clone(), |p| (p[0] * 100 + p[1]) as u32).unwrap();
    let hot = d("[20:49,20:49]");

    let db = Database::create_dir(dir.path()).unwrap();
    db.create_object(
        "cube",
        MddType::new(CellType::of::<u32>(), DefDomain::unlimited(2).unwrap()),
        Scheme::Aligned(AlignedTiling::regular(2, 2048)),
    )
    .unwrap();
    db.insert("cube", &data).unwrap();

    // Clustered workload: the hot region dominates the access log.
    let mut baseline = None;
    for _ in 0..10 {
        let stats = { db.range_query("cube", &hot).unwrap() }.stats;
        baseline.get_or_insert(stats);
    }
    db.range_query("cube", &d("[80:89,0:9]")).unwrap(); // stray access
    let baseline = baseline.unwrap();
    assert!(
        baseline.tiles_read > 1,
        "regular tiling fragments the hot region: {baseline:?}"
    );

    // The engine recorded the workload persistently; re-tile from it.
    let log = db.recorder().unwrap().entries_for("cube").unwrap();
    assert!(log
        .iter()
        .any(|e| e.region == hot.to_string() && e.count == 10));
    let stats = db.auto_retile_from_log("cube", 0, 5, 64 * 1024).unwrap();
    assert!(stats.tiles_after > 0);

    // The hot region now reads fewer tiles, with no wasted cells and a
    // lower modelled disk time; the data is unchanged.
    let __q = db.range_query("cube", &hot).unwrap();
    let (out, after) = (__q.array, __q.stats);
    assert_eq!(out, data.extract(&hot).unwrap());
    assert!(
        after.tiles_read < baseline.tiles_read,
        "tiles {} -> {}",
        baseline.tiles_read,
        after.tiles_read
    );
    let model = CostModel::classic_disk();
    assert!(
        after.times(&model).t_o < baseline.times(&model).t_o,
        "t_o must drop after log-driven re-tiling"
    );
    assert_eq!(after.cells_processed, hot.cells(), "no border waste");

    // Persistence: the adapted tiling and the log survive a reopen.
    db.save(dir.path()).unwrap();
    let db2 = Database::open_dir(dir.path()).unwrap();
    let __q = db2.range_query("cube", &hot).unwrap();
    let (out2, again) = (__q.array, __q.stats);
    assert_eq!(out2, data.extract(&hot).unwrap());
    assert_eq!(again.tiles_read, after.tiles_read);
    assert!(db2.recorder().unwrap().total_accesses().unwrap() >= 11);
}

#[test]
fn single_tile_and_sparse_objects() {
    let db = Database::in_memory().unwrap();
    // A tiny config object stored as one BLOB.
    db.create_object(
        "config",
        MddType::new(CellType::of::<u8>(), DefDomain::unlimited(1).unwrap()),
        Scheme::SingleTile(tilestore::SingleTile),
    )
    .unwrap();
    db.insert(
        "config",
        &Array::from_cells(d("[0:15]"), &[7u8; 16]).unwrap(),
    )
    .unwrap();
    assert_eq!(db.object("config").unwrap().tile_count(), 1);

    // A sparse object: two far-apart islands, huge current domain, tiny
    // storage footprint (§4 partial coverage).
    db.create_object(
        "sparse",
        MddType::new(CellType::of::<u8>(), DefDomain::unlimited(2).unwrap()),
        Scheme::Aligned(AlignedTiling::regular(2, 1024)),
    )
    .unwrap();
    db.insert("sparse", &Array::filled(d("[0:9,0:9]"), &[1]).unwrap())
        .unwrap();
    db.insert(
        "sparse",
        &Array::filled(d("[10000:10009,10000:10009]"), &[2]).unwrap(),
    )
    .unwrap();
    let obj = db.object("sparse").unwrap();
    assert_eq!(
        obj.current_domain,
        Some(d("[0:10009,0:10009]")),
        "current domain is the closure"
    );
    assert_eq!(
        obj.covered_cells(),
        200,
        "storage stays proportional to data"
    );
    let probe = {
        db.range_query("sparse", &d("[5000:5001,5000:5001]"))
            .unwrap()
    }
    .array;
    assert!(probe.to_cells::<u8>().unwrap().iter().all(|&c| c == 0));
}
