//! Cross-crate integration of the query language: RasQL over compressed,
//! directionally-tiled, persisted databases.

use tilestore::rasql::{execute, Value};
use tilestore::{
    AlignedTiling, Array, AxisPartition, CellType, Codec, CompressionPolicy, Database, DefDomain,
    DirectionalTiling, Domain, MddType, Scheme,
};

fn d(s: &str) -> Domain {
    s.parse().unwrap()
}

fn sales_cell(p: &tilestore::Point) -> u32 {
    ((p[0] * 7 + p[1] * 3 + p[2]) % 100) as u32
}

/// Piecewise constant: one value per block of 8 rows x 16 columns, so the
/// delta transform leaves 8-cell blocks that are zero in every lane.
fn levels_cell(p: &tilestore::Point) -> u16 {
    (700 + p[0] / 8 * 13 + p[1] / 16 * 7) as u16
}

/// Builds a quarter-year sales cube with category cuts, selective
/// compression, loaded in two growth steps, and a `u16` object of flat
/// blocks stored with the delta codec.
fn build(dir: &std::path::Path) {
    let db = Database::create_dir(dir).unwrap();
    db.create_object(
        "sales",
        MddType::new(CellType::of::<u32>(), DefDomain::unlimited(3).unwrap()),
        Scheme::Directional(DirectionalTiling::new(
            vec![
                AxisPartition::new(0, vec![1, 31, 59, 90]),
                AxisPartition::new(1, vec![1, 27, 42, 60]),
            ],
            64 * 1024,
        )),
    )
    .unwrap();
    db.set_compression("sales", CompressionPolicy::selective_default())
        .unwrap();
    // Two-step growth along the time axis.
    for (lo, hi) in [(1i64, 59i64), (60, 90)] {
        let dom = Domain::from_bounds(&[(lo, hi), (1, 60), (1, 100)]).unwrap();
        db.insert("sales", &Array::from_fn(dom, sales_cell).unwrap())
            .unwrap();
    }
    db.create_object(
        "levels",
        MddType::new(CellType::of::<u16>(), DefDomain::unlimited(2).unwrap()),
        Scheme::Aligned(AlignedTiling::regular(2, 4 * 1024)),
    )
    .unwrap();
    db.set_compression("levels", CompressionPolicy::Fixed(Codec::DeltaPackBits))
        .unwrap();
    db.insert(
        "levels",
        &Array::from_fn(d("[0:199,0:149]"), levels_cell).unwrap(),
    )
    .unwrap();
    db.save(dir).unwrap();
}

#[test]
fn rasql_over_reopened_compressed_database() {
    let dir = tilestore_testkit::tempdir().unwrap();
    build(dir.path());
    let db = Database::open_dir(dir.path()).unwrap();

    // Trim spanning the growth boundary.
    let (v, stats) = execute(
        &db.begin_read(),
        "SELECT sales[55:65, 1:10, 1:10] FROM sales",
    )
    .unwrap();
    assert_eq!(
        v.as_array().unwrap(),
        &Array::from_fn(d("[55:65,1:10,1:10]"), sales_cell).unwrap()
    );
    assert!(stats.io.bytes_read > 0, "data decompressed from disk");

    // Narrow cells through the delta codec, read at windows that cut tiles
    // and flat blocks at unaligned offsets.
    let logical = 200 * 150 * 2;
    let stored = db.object_physical_bytes("levels").unwrap();
    assert!(stored * 4 < logical, "levels compressed: {stored} bytes");
    for window in [
        "[3:77,5:140]",
        "[0:199,0:149]",
        "[101:101,17:33]",
        "[9:190,61:61]",
    ] {
        let (v, _) = execute(
            &db.begin_read(),
            &format!("SELECT levels{window} FROM levels"),
        )
        .unwrap();
        assert_eq!(
            v.as_array().unwrap(),
            &Array::from_fn(d(window), levels_cell).unwrap(),
            "levels{window}"
        );
    }

    // Streaming condenser equals materialize-and-fold.
    let (sum, _) = execute(
        &db.begin_read(),
        "SELECT sum_cells(sales[1:30, 1:26, *]) FROM sales",
    )
    .unwrap();
    let (block, _) = execute(&db.begin_read(), "SELECT sales[1:30, 1:26, *] FROM sales").unwrap();
    let brute: f64 = block
        .as_array()
        .unwrap()
        .to_cells::<u32>()
        .unwrap()
        .iter()
        .map(|&c| f64::from(c))
        .sum();
    assert_eq!(sum.as_number().unwrap(), brute);

    // Induced comparison counted two ways agrees.
    let (count, _) = execute(
        &db.begin_read(),
        "SELECT count_cells(sales > 50) FROM sales",
    )
    .unwrap();
    let Value::Count(n) = count else {
        panic!("count expected")
    };
    let (all, _) = execute(&db.begin_read(), "SELECT sales FROM sales").unwrap();
    let brute = all
        .as_array()
        .unwrap()
        .to_cells::<u32>()
        .unwrap()
        .iter()
        .filter(|&&c| c > 50)
        .count() as u64;
    assert_eq!(n, brute);
}

#[test]
fn section_and_induced_compose_across_crates() {
    let dir = tilestore_testkit::tempdir().unwrap();
    build(dir.path());
    let db = Database::open_dir(dir.path()).unwrap();

    // Day 45 as a 2-D slab, doubled.
    let (v, _) = execute(&db.begin_read(), "SELECT sales[45, *, *] * 2 FROM sales").unwrap();
    let slab = v.as_array().unwrap();
    assert_eq!(slab.domain(), &d("[1:60,1:100]"));
    let expected = (((45 * 7 + 10 * 3 + 20) % 100) * 2) as u32;
    assert_eq!(
        slab.get::<u32>(&tilestore::Point::from_slice(&[10, 20]))
            .unwrap(),
        expected
    );

    // avg over the section must match avg over the equivalent 3-D trim.
    let (a, _) = execute(
        &db.begin_read(),
        "SELECT avg_cells(sales[45, *, *]) FROM sales",
    )
    .unwrap();
    let (b, _) = execute(
        &db.begin_read(),
        "SELECT avg_cells(sales[45:45, *, *]) FROM sales",
    )
    .unwrap();
    assert!((a.as_number().unwrap() - b.as_number().unwrap()).abs() < 1e-9);
}

/// `EXPLAIN ANALYZE` reports the reads the statement made: on a defragged
/// object of single-page tiles, the plan's `fetch-coalesced` tiles are
/// exactly the page joins of the analyzed run (`pages_read_run −
/// runs_coalesced`), for a range read that coalesces and for a condenser,
/// which reads one tile at a time in index order and so joins none.
#[test]
fn explain_analyze_coalescing_matches_the_executed_reads() {
    use tilestore::engine::TileDecision;
    use tilestore::rasql::{execute_statement, StatementResult};

    let db = Database::in_memory().unwrap();
    db.create_object(
        "big",
        MddType::new(CellType::of::<u32>(), DefDomain::unlimited(2).unwrap()),
        Scheme::Aligned(AlignedTiling::regular(2, 1024)),
    )
    .unwrap();
    db.insert(
        "big",
        &Array::from_fn(d("[0:127,0:127]"), |p| (p[0] * 128 + p[1]) as u32).unwrap(),
    )
    .unwrap();
    db.defrag("big").unwrap();
    let analyzed = |stmt: &str| {
        let StatementResult::Explain(report) = execute_statement(&db.begin_read(), stmt).unwrap()
        else {
            panic!("{stmt} did not explain");
        };
        let coalesced = report
            .plan
            .tiles
            .iter()
            .filter(|t| t.decision == TileDecision::FetchCoalesced)
            .count() as u64;
        let io = report.analyze.expect("ANALYZE executes").stats.io;
        (report.plan.fetched(), coalesced, io)
    };

    let (fetched, coalesced, io) = analyzed("EXPLAIN ANALYZE SELECT big FROM big");
    assert_eq!(fetched, 64);
    assert!(coalesced > 0, "a defragged range read coalesces: {io:?}");
    assert_eq!(coalesced, io.pages_read_run - io.runs_coalesced, "{io:?}");

    let (fetched, coalesced, io) = analyzed("EXPLAIN ANALYZE SELECT sum_cells(big) FROM big");
    assert_eq!(fetched, 64);
    assert_eq!(coalesced, 0);
    assert_eq!(coalesced, io.pages_read_run - io.runs_coalesced, "{io:?}");
}
