//! The catalog codec. Every `catalog.json` the engine writes decodes into
//! the typed catalog and re-encodes to the same bytes, whatever tiling,
//! compression, placement and free space the store holds. A damaged
//! catalog — truncated, flipped or nested without end — is refused with an
//! error, or opens into a store whose next commit checks clean; it never
//! panics or overflows the stack.

use std::fs;
use std::path::Path;

use tilestore::engine::{fsck, Catalog, CATALOG_FILE, CATALOG_TMP_FILE, PAGES_FILE};
use tilestore::{
    AccessRecord, AlignedTiling, AreasOfInterestTiling, Array, AxisPartition, CellType,
    CompressionPolicy, Database, DefDomain, DirectionalTiling, Domain, EngineError, MddType,
    Scheme, StatisticTiling,
};
use tilestore_testkit::{json, tempdir, Rng, TempDir};

fn d(s: &str) -> Domain {
    s.parse().unwrap()
}

fn u32_plane() -> MddType {
    MddType::new(CellType::of::<u32>(), DefDomain::unlimited(2).unwrap())
}

/// The four tilings of the paper over one 80×60 plane.
fn paper_schemes() -> Vec<(&'static str, Scheme)> {
    let (hot_a, hot_b) = (d("[10:39,5:24]"), d("[50:79,30:59]"));
    vec![
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
                    AccessRecord::new(hot_a, 9),
                    AccessRecord::new(hot_b, 7),
                    AccessRecord::new(d("[0:9,40:49]"), 2),
                ],
                8,
                3,
                8 * 1024,
            )),
        ),
    ]
}

/// A committed store holding `scheme`'s object beside a compressed, a
/// defragged and a dropped one (so the free list is not empty), then left
/// as a crash leaves it: pages written after the commit and a stale
/// `catalog.json.tmp`.
fn build_store(dir: &Path, scheme: Scheme, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let plane = d("[0:79,0:59]");
    let data = Array::from_fn(plane.clone(), |_| rng.gen_range(0u32..10_000)).unwrap();
    let db = Database::create_dir(dir).unwrap();
    db.create_object("cube", u32_plane(), scheme).unwrap();
    db.insert("cube", &data).unwrap();

    db.create_object(
        "packed",
        u32_plane(),
        Scheme::Aligned(AlignedTiling::regular(2, 1024)),
    )
    .unwrap();
    db.set_compression("packed", CompressionPolicy::selective_default())
        .unwrap();
    db.insert(
        "packed",
        &Array::from_fn(plane.clone(), |p| (p[0] / 16) as u32).unwrap(),
    )
    .unwrap();

    // Two slabs written around another object's pages leave "moved" out
    // of curve order; defrag rewrites it contiguously.
    let regular = Scheme::Aligned(AlignedTiling::regular(2, 1024));
    db.create_object("moved", u32_plane(), regular.clone())
        .unwrap();
    db.create_object("gone", u32_plane(), regular).unwrap();
    for (slab, other) in [
        ("[0:39,0:59]", "[0:79,0:29]"),
        ("[40:79,0:59]", "[0:79,30:59]"),
    ] {
        db.insert("moved", &Array::from_fn(d(slab), |p| p[1] as u32).unwrap())
            .unwrap();
        db.insert("gone", &Array::from_fn(d(other), |p| p[0] as u32).unwrap())
            .unwrap();
    }
    db.defrag("moved").unwrap();
    db.drop_object("gone").unwrap();
    db.save(dir).unwrap();
    db.save(dir).unwrap();

    // The crash: work after the last commit, and a commit cut short.
    db.insert(
        "packed",
        &Array::from_fn(d("[80:1279,0:59]"), |p| p[0] as u32).unwrap(),
    )
    .unwrap();
    fs::write(dir.join(CATALOG_TMP_FILE), "{\"page_size\":").unwrap();
}

/// Opens `dir` and commits what opening repaired; the result must check
/// clean. `Err` when the store does not open.
fn open_and_commit(dir: &Path) -> Result<(), EngineError> {
    let db = Database::open_dir(dir)?;
    db.save(dir)?;
    let report = fsck(dir)?;
    assert!(report.is_clean(), "opened, committed, yet dirty: {report}");
    Ok(())
}

#[test]
fn every_written_catalog_reencodes_byte_for_byte() {
    for (seed, (name, scheme)) in (1u64..).zip(paper_schemes()) {
        let dir = tempdir().unwrap();
        build_store(dir.path(), scheme, seed);
        let text = fs::read_to_string(dir.path().join(CATALOG_FILE)).unwrap();
        let catalog: Catalog = json::from_str(&text).unwrap();
        assert!(
            !catalog.blobs.free_pages().is_empty(),
            "{name}: the store has free pages"
        );
        assert_eq!(json::to_string(&catalog), text, "{name}");

        let report = fsck(dir.path()).unwrap();
        assert!(
            report.stale_tmp && !report.orphaned_pages.is_empty(),
            "{name}: {report}"
        );
        open_and_commit(dir.path()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let text = fs::read_to_string(dir.path().join(CATALOG_FILE)).unwrap();
        let catalog: Catalog = json::from_str(&text).unwrap();
        assert_eq!(json::to_string(&catalog), text, "{name}: after recovery");
    }
}

#[test]
fn a_catalog_nested_past_the_limit_is_a_catalog_error() {
    let dir = tempdir().unwrap();
    build_store(
        dir.path(),
        Scheme::Aligned(AlignedTiling::regular(2, 1024)),
        7,
    );
    let deep = "[".repeat(20_000);
    // Bare, the first byte is already wrong for a catalog; inside a member
    // the decoder does not know, skipping it descends until the limit.
    for (catalog, refusal) in [
        (deep.clone(), "expected '{'"),
        (
            format!("{{\"page_size\":8192,\"legacy\":{deep}"),
            "nesting deeper",
        ),
    ] {
        fs::write(dir.path().join(CATALOG_FILE), catalog).unwrap();
        for result in [
            fsck(dir.path()).map(drop),
            Database::open_dir(dir.path()).map(drop),
        ] {
            match result {
                Err(EngineError::Catalog(e)) => assert!(e.contains(refusal), "{e}"),
                other => panic!("expected a catalog error, got {other:?}"),
            }
        }
    }
}

/// Copies the store's page file and writes `catalog` beside it.
fn store_with_catalog(pages: &Path, catalog: &[u8]) -> TempDir {
    let dir = tempdir().unwrap();
    fs::copy(pages, dir.path().join(PAGES_FILE)).unwrap();
    fs::write(dir.path().join(CATALOG_FILE), catalog).unwrap();
    dir
}

#[test]
fn truncated_and_flipped_catalogs_fail_or_open_clean() {
    let (name, scheme) = paper_schemes().swap_remove(3);
    let source = tempdir().unwrap();
    build_store(source.path(), scheme, 11);
    let pages = source.path().join(PAGES_FILE);
    let text = fs::read(source.path().join(CATALOG_FILE)).unwrap();
    let mut rng = Rng::seed_from_u64(0xca7a_1065);
    let (mut refused, mut opened) = (0, 0);
    for case in 0..240 {
        let mut bytes = text.clone();
        if case % 2 == 0 {
            bytes.truncate(rng.gen_range(0..text.len()));
        } else {
            // Half the flips write a digit, which keeps most numbers
            // numbers: a catalog that still parses but says something else.
            for _ in 0..rng.gen_range(1..=3u32) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = if rng.gen_bool(0.5) {
                    rng.gen_range(b'0'..=b'9')
                } else {
                    rng.next_u64() as u8
                };
            }
        }
        let dir = store_with_catalog(&pages, &bytes);
        // fsck inspects without repairing; it may refuse, never panic.
        let _ = fsck(dir.path());
        match open_and_commit(dir.path()) {
            Ok(()) => opened += 1,
            Err(_) => refused += 1,
        }
    }
    assert!(
        refused > 0 && opened > 0,
        "{name}: {refused} refused, {opened} opened"
    );
}
