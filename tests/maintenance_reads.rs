//! Maintenance operations read like queries: a retile, defrag or update
//! fetches its tiles through one plan that the buffer pool admits as a
//! scan. A retile reads each stored page about once, and none of these
//! operations evicts the hot set of another object.

use std::sync::Mutex;

use tilestore::storage::PageStore;
use tilestore::{Array, Database, DefDomain, Domain, MddType, Scheme};
use tilestore_bench::schemes::NamedScheme;
use tilestore_bench::workloads::sales::SalesCube;

/// Serializes the tests of this file: (c) reads the process-wide
/// `engine.queries` counter, which the others' queries move.
static SERIAL: Mutex<()> = Mutex::new(());

fn d(s: &str) -> Domain {
    s.parse().unwrap()
}

/// The Table 1 cube cut to one year (`paper_claims.rs`'s `small_cube`):
/// 8.8 MB of `u32`, more than one retile band and more than the default
/// buffer pool.
fn one_year_cube() -> (SalesCube, Array) {
    let full = SalesCube::table1();
    let domain = d("[1:365,1:60,1:100]");
    let cube = SalesCube {
        domain: domain.clone(),
        partitions: full
            .partitions
            .iter()
            .map(|p| {
                let hi = domain.hi(p.axis);
                let mut points: Vec<i64> = p.points.iter().copied().filter(|&x| x < hi).collect();
                points.push(hi);
                tilestore::AxisPartition::new(p.axis, points)
            })
            .collect(),
    };
    let data = cube.generate(7);
    (cube, data)
}

fn create<S: PageStore>(db: &Database<S>, name: &str, scheme: Scheme, data: &Array) {
    db.create_object(
        name,
        MddType::new(SalesCube::cell_type(), DefDomain::unlimited(3).unwrap()),
        scheme,
    )
    .unwrap();
    db.insert(name, data).unwrap();
}

fn stored_pages<S: PageStore>(db: &Database<S>, name: &str) -> u64 {
    db.object(name)
        .unwrap()
        .tiles
        .iter()
        .map(|t| db.blob_store().blob_placement(t.blob).unwrap().pages)
        .sum()
}

#[test]
fn a_retile_reads_each_stored_page_about_once_and_is_not_a_query() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (cube, data) = one_year_cube();
    let db = Database::in_memory().unwrap();
    create(&db, "cube", NamedScheme::regular(3, 32).scheme, &data);
    let log = db.access_log("cube").unwrap();
    for to in [
        NamedScheme::directional(64, cube.partitions_3p()),
        NamedScheme::regular(3, 256),
        NamedScheme::regular(3, 32),
    ] {
        let stored = stored_pages(&db, "cube");
        let accesses = log.total_accesses();
        let queries = tilestore::obs::hot().queries.get();
        let before = db.io_stats().snapshot();
        db.retile("cube", to.scheme).unwrap();
        let read = db.io_stats().snapshot().since(&before).pages_read;
        // (a) Each old page is read about once: only old tiles that
        // straddle two retile bands are read twice.
        assert!(
            read as f64 <= 1.2 * stored as f64,
            "to {}: read {read} of {stored} stored pages",
            to.name
        );
        // (c) A retile is no query: the access log and the query
        // counter do not see it.
        assert_eq!(
            tilestore::obs::hot().queries.get(),
            queries,
            "to {}",
            to.name
        );
        assert_eq!(log.total_accesses(), accesses, "to {}", to.name);
        let whole = db.range_query("cube", &cube.domain).unwrap();
        assert!(whole.array == data, "to {}: a cell changed", to.name);
    }
}

#[test]
fn maintenance_of_a_large_object_leaves_a_hot_window_resident() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (cube, data) = one_year_cube();
    let dir = tilestore_testkit::tempdir().unwrap();
    // The default pool: 1024 pages, fewer than the cube's.
    let db = Database::create_dir(dir.path()).unwrap();
    create(&db, "big", NamedScheme::regular(3, 32).scheme, &data);
    let capacity = 1024;
    assert!(
        stored_pages(&db, "big") > capacity,
        "the cube must not fit the pool"
    );
    let small = d("[1:60,1:60,1:100]");
    create(
        &db,
        "hot",
        NamedScheme::regular(3, 32).scheme,
        &data.extract(&small).unwrap(),
    );
    let window = d("[1:20,1:30,1:60]");
    db.range_query("hot", &window).unwrap();
    let warm = db.range_query("hot", &window).unwrap().stats.io;
    assert!(warm.pages_read > 0 && warm.cache_misses == 0, "{warm:?}");

    let patch = d("[10:300,1:50,5:100]");
    let mut expected = data.clone();
    expected
        .paste(&Array::filled(patch.clone(), &7u32.to_le_bytes()).unwrap())
        .unwrap();
    let ops: [(&str, &dyn Fn()); 3] = [
        ("retile", &|| {
            db.retile(
                "big",
                NamedScheme::directional(64, cube.partitions_3p()).scheme,
            )
            .map(drop)
            .unwrap()
        }),
        ("defrag", &|| db.defrag("big").map(drop).unwrap()),
        ("update", &|| {
            let patch = Array::filled(patch.clone(), &7u32.to_le_bytes()).unwrap();
            db.update("big", &patch).map(drop).unwrap()
        }),
    ];
    for (what, op) in ops {
        op();
        let again = db.range_query("hot", &window).unwrap().stats.io;
        assert_eq!(
            (again.pages_read, again.cache_misses),
            (warm.pages_read, 0),
            "after {what}: the hot window was evicted"
        );
    }
    let whole = db.range_query("big", &cube.domain).unwrap();
    assert!(whole.array == expected, "a maintained cell is wrong");
}
