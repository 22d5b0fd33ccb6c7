//! Crash-consistency property tests.
//!
//! A [`FaultInjectingPageStore`] crashes a full create → insert → save →
//! retile → save workload at every page-store operation index (and tears
//! page writes at a sample of them). After each simulated crash the
//! directory is reopened through the normal recovery path and must contain
//! exactly the last committed state: the right catalog epoch, the right
//! cell contents, no torn catalog, no lost tiles, and — after recovery
//! recommits — zero `fsck` inconsistencies.

use std::fs;
use std::path::Path;

use tilestore_engine::{
    fsck, Array, CellPredicate, CellType, Database, MddType, PredOp, CATALOG_FILE,
    CATALOG_TMP_FILE, PAGES_FILE,
};
use tilestore_storage::{
    FaultInjectingPageStore, FaultPlan, FilePageStore, DEFAULT_PAGE_SIZE, FRAME_HEADER,
};
use tilestore_tiling::{AlignedTiling, Scheme};

type FaultyDb = Database<FaultInjectingPageStore<FilePageStore>>;

fn data_a() -> Array {
    Array::from_fn("[0:19,0:19]".parse().unwrap(), |p| {
        (p[0] * 100 + p[1] + 1) as u32
    })
    .unwrap()
}

fn data_b() -> Array {
    Array::from_fn("[20:39,0:19]".parse().unwrap(), |p| {
        (p[0] * 100 + p[1] + 7) as u32
    })
    .unwrap()
}

/// The full committed contents after `commits` successful saves, queried
/// over the union domain (uncovered cells read the u32 default, 0).
fn expected_contents(commits: u64) -> Array {
    let mut full = Array::filled("[0:39,0:19]".parse().unwrap(), &0u32.to_le_bytes()).unwrap();
    full.paste(&data_a()).unwrap();
    if commits >= 2 {
        full.paste(&data_b()).unwrap();
    }
    full
}

/// Opens a fresh fault-wrapped database in `dir` and runs the unfaulted
/// phase 0: create the object, insert `data_a`, commit (epoch 1).
fn phase0(dir: &Path) -> FaultyDb {
    fs::create_dir_all(dir).unwrap();
    let store = FilePageStore::create(dir.join(PAGES_FILE), DEFAULT_PAGE_SIZE).unwrap();
    let db = Database::with_store(FaultInjectingPageStore::new(store));
    db.create_object(
        "m",
        MddType::new(CellType::of::<u32>(), "[0:*,0:*]".parse().unwrap()),
        Scheme::Aligned(AlignedTiling::regular(2, 1024)),
    )
    .unwrap();
    db.insert("m", &data_a()).unwrap();
    db.save(dir).unwrap();
    db
}

struct Outcome {
    /// Successful commits (1 = only phase 0's).
    commits: u64,
    /// Operation index right after phase 0 (first faultable op).
    ops0: u64,
    /// Operation count after the whole workload (dry runs only).
    total_ops: u64,
}

/// Runs the workload with `plan` armed after phase 0, stopping at the
/// first injected failure as a dead process would.
fn run_workload(dir: &Path, plan: Option<FaultPlan>) -> Outcome {
    let db = phase0(dir);
    let ops0 = db.blob_store().page_store().ops();
    if let Some(plan) = plan {
        db.blob_store().page_store().set_plan(plan);
    }
    let mut out = Outcome {
        commits: 1,
        ops0,
        total_ops: 0,
    };
    let crashed = (|| -> Result<(), tilestore_engine::EngineError> {
        db.insert("m", &data_b())?;
        db.save(dir)?;
        out.commits = 2;
        db.retile("m", Scheme::Aligned(AlignedTiling::regular(2, 2048)))?;
        db.save(dir)?;
        out.commits = 3;
        Ok(())
    })()
    .is_err();
    let _ = crashed; // the outcome, not the error, is what matters
    out.total_ops = db.blob_store().page_store().ops();
    out
}

/// Reopens after a crash and asserts the database is exactly the state of
/// the last completed commit, then proves recovery converges: one fresh
/// commit makes fsck fully clean.
fn assert_recovers(dir: &Path, commits: u64, what: &str) {
    let db = Database::open_dir(dir)
        .unwrap_or_else(|e| panic!("{what}: reopen after crash failed: {e}"));
    assert_eq!(db.catalog_epoch(), commits, "{what}: wrong committed epoch");
    assert!(
        !dir.join(CATALOG_TMP_FILE).exists(),
        "{what}: stale tmp survived recovery"
    );
    let region = "[0:39,0:19]".parse().unwrap();
    let q = db
        .range_query("m", &region)
        .unwrap_or_else(|e| panic!("{what}: committed data unreadable: {e}"));
    assert_eq!(
        q.array,
        expected_contents(commits),
        "{what}: lost or torn tiles"
    );
    // The synopsis surface must also survive the crash: a pruned masked
    // read agrees byte-for-byte with masking the recovered contents in
    // plain code.
    assert_predicate_reads_clean(&db, &region, commits, what);
    // Recovery reclaimed any orphans in memory; recommitting persists the
    // repair, after which the directory must audit perfectly clean.
    db.save(dir)
        .unwrap_or_else(|e| panic!("{what}: post-recovery save failed: {e}"));
    let report = fsck(dir).unwrap();
    assert!(
        report.is_clean(),
        "{what}: fsck dirty after recovery: {report}"
    );
    assert!(
        report.unreferenced_blobs.is_empty(),
        "{what}: blob no tile references: {report}"
    );
}

/// Runs `WHERE m >= 2000` through the recovered database and checks the
/// result against masking [`expected_contents`] cell-by-cell.
fn assert_predicate_reads_clean<S: tilestore_storage::PageStore>(
    db: &Database<S>,
    region: &tilestore_geometry::Domain,
    commits: u64,
    what: &str,
) {
    let pred = CellPredicate {
        op: PredOp::Ge,
        literal: 2000.0,
    };
    let full = expected_contents(commits);
    let masked_bytes: Vec<u8> = full
        .to_cells::<u32>()
        .unwrap()
        .into_iter()
        .map(|v| if f64::from(v) >= 2000.0 { v } else { 0 })
        .flat_map(u32::to_le_bytes)
        .collect();
    let masked = Array::from_bytes(region.clone(), 4, masked_bytes).unwrap();
    let q = db
        .range_query_where("m", region, Some(&pred))
        .unwrap_or_else(|e| panic!("{what}: predicate read failed after recovery: {e}"));
    assert_eq!(q.array, masked, "{what}: predicate read diverged");
}

#[test]
fn crash_at_every_operation_recovers_to_a_committed_state() {
    // Dry run: learn the operation range of the faulted phase.
    let dry_dir = tilestore_testkit::tempdir().unwrap();
    let dry = run_workload(dry_dir.path(), None);
    assert_eq!(dry.commits, 3, "dry run must complete");
    assert!(dry.total_ops > dry.ops0, "workload must touch the store");
    // Crash at every op index (strided only if the workload ever grows
    // large enough to threaten the test-time budget).
    let range = dry.total_ops - dry.ops0;
    let stride = (range / 160).max(1);
    let mut tested = 0u64;
    for k in (dry.ops0..dry.total_ops).step_by(stride as usize) {
        let dir = tilestore_testkit::tempdir().unwrap();
        let out = run_workload(dir.path(), Some(FaultPlan::fail_at(k)));
        assert!(out.commits < 3, "crash at op {k} did not stop the workload");
        assert_recovers(dir.path(), out.commits, &format!("crash at op {k}"));
        tested += 1;
    }
    assert!(tested >= 10, "suspiciously few crash points ({tested})");
}

/// Like [`run_workload`] but the faulted phase ends in compaction: insert
/// `data_b`, save (commit 2), `defrag` (full blob rewrite in centroid
/// curve order), save (commit 3).
fn run_defrag_workload(dir: &Path, plan: Option<FaultPlan>) -> Outcome {
    let db = phase0(dir);
    let ops0 = db.blob_store().page_store().ops();
    if let Some(plan) = plan {
        db.blob_store().page_store().set_plan(plan);
    }
    let mut out = Outcome {
        commits: 1,
        ops0,
        total_ops: 0,
    };
    let _ = (|| -> Result<(), tilestore_engine::EngineError> {
        db.insert("m", &data_b())?;
        db.save(dir)?;
        out.commits = 2;
        let receipt = db.defrag("m")?;
        // The two inserts wrote their tiles in insertion order, not curve
        // order, so the defrag must really rewrite.
        assert!(
            receipt.stats.bytes_rewritten > 0,
            "defrag workload found nothing to compact"
        );
        db.save(dir)?;
        out.commits = 3;
        Ok(())
    })();
    out.total_ops = db.blob_store().page_store().ops();
    out
}

#[test]
fn crash_at_every_defrag_operation_recovers_to_a_committed_state() {
    // The compaction commit swaps every tile's placement and quarantines
    // the displaced blobs; a crash anywhere in that protocol must leave
    // the last committed contents readable and the directory repairable.
    let dry_dir = tilestore_testkit::tempdir().unwrap();
    let dry = run_defrag_workload(dry_dir.path(), None);
    assert_eq!(dry.commits, 3, "dry run must complete");
    let range = dry.total_ops - dry.ops0;
    let stride = (range / 160).max(1);
    let mut tested = 0u64;
    for k in (dry.ops0..dry.total_ops).step_by(stride as usize) {
        let dir = tilestore_testkit::tempdir().unwrap();
        let out = run_defrag_workload(dir.path(), Some(FaultPlan::fail_at(k)));
        assert!(out.commits < 3, "crash at op {k} did not stop the workload");
        assert_recovers(dir.path(), out.commits, &format!("defrag crash at op {k}"));
        tested += 1;
    }
    assert!(tested >= 10, "suspiciously few crash points ({tested})");
}

#[test]
fn torn_writes_never_corrupt_committed_state() {
    let dry_dir = tilestore_testkit::tempdir().unwrap();
    let dry = run_workload(dry_dir.path(), None);
    // Tear each sampled write mid-frame: header plus half the payload
    // lands, the rest never does.
    let torn_bytes = FRAME_HEADER + DEFAULT_PAGE_SIZE / 2;
    for k in (dry.ops0..dry.total_ops).step_by(3) {
        let dir = tilestore_testkit::tempdir().unwrap();
        let out = run_workload(dir.path(), Some(FaultPlan::torn_write_at(k, torn_bytes)));
        // If op k is not a write the plan never fires and the workload
        // completes; both outcomes must satisfy the recovery property.
        assert_recovers(dir.path(), out.commits, &format!("torn write at op {k}"));
    }
}

#[test]
fn crash_during_save_leaves_previous_commit_intact() {
    // The dedicated regression for the old non-atomic save: die inside
    // save (at its page-store sync), leave a garbage staging file behind,
    // and reopen — the previous commit must come back untouched.
    let dir = tilestore_testkit::tempdir().unwrap();
    let db = phase0(dir.path());
    db.insert("m", &data_b()).unwrap();
    let next_op = db.blob_store().page_store().ops();
    db.blob_store()
        .page_store()
        .set_plan(FaultPlan::fail_at(next_op));
    assert!(db.save(dir.path()).is_err(), "save must hit the crash");
    drop(db);
    // A crash later in the protocol leaves a half-written staging file.
    fs::write(dir.path().join(CATALOG_TMP_FILE), b"{\"page_size\": 40").unwrap();
    let report = fsck(dir.path()).unwrap();
    assert!(report.stale_tmp && !report.is_clean());
    assert_recovers(dir.path(), 1, "crash inside save");
}

/// Asserts the directory holds exactly the tiles' blobs: a failed write
/// must not leave behind the blobs it wrote before failing.
fn assert_blobs_are_tiles<S: tilestore_storage::PageStore>(db: &Database<S>, what: &str) {
    assert_eq!(
        db.blob_store().blob_count(),
        db.object("m").unwrap().tile_count(),
        "{what}: blobs no tile references"
    );
}

/// Runs `write` with a one-off fault at its first page operation, then at
/// its second, and so on, until the fault lands past its last operation
/// and the write succeeds. Every failed attempt must leave only tiles in
/// the directory.
fn retry_through_every_fault(
    db: &FaultyDb,
    what: &str,
    write: impl Fn(&FaultyDb) -> Result<(), tilestore_engine::EngineError>,
) {
    let store = db.blob_store().page_store();
    for k in 0.. {
        store.set_plan(FaultPlan::transient(&[store.ops() + k]));
        let outcome = write(db);
        store.set_plan(FaultPlan::none());
        if outcome.is_ok() {
            assert!(k > 1, "{what}: the write touched the store only {k} times");
            return;
        }
        assert_blobs_are_tiles(db, &format!("{what} failing at its op {k}"));
    }
}

#[test]
fn transient_store_errors_do_not_poison_the_database() {
    // A one-off I/O failure surfaces as an error but the database stays
    // usable, the failed write leaves no blob behind, and the retried
    // commit succeeds.
    let dir = tilestore_testkit::tempdir().unwrap();
    let db = phase0(dir.path());
    let next_op = db.blob_store().page_store().ops();
    db.blob_store()
        .page_store()
        .set_plan(FaultPlan::transient(&[next_op]));
    assert!(db.insert("m", &data_b()).is_err());
    assert_blobs_are_tiles(&db, "failed insert");
    db.insert("m", &data_b()).unwrap();
    // The retile, update, delete and defrag paths each fail at every page
    // operation in turn, some after writing blobs, and leak none.
    retry_through_every_fault(&db, "retile", |db| {
        db.retile("m", Scheme::Aligned(AlignedTiling::regular(2, 2048)))
            .map(drop)
    });
    let patch = Array::filled("[5:24,3:8]".parse().unwrap(), &9u32.to_le_bytes()).unwrap();
    retry_through_every_fault(&db, "update", |db| db.update("m", &patch).map(drop));
    let hole: tilestore_geometry::Domain = "[30:39,10:19]".parse().unwrap();
    retry_through_every_fault(&db, "delete", |db| db.delete_region("m", &hole).map(drop));
    retry_through_every_fault(&db, "defrag", |db| db.defrag("m").map(drop));
    let mut expected = expected_contents(2);
    expected.paste(&patch).unwrap();
    expected
        .paste(&Array::filled(hole, &0u32.to_le_bytes()).unwrap())
        .unwrap();
    db.save(dir.path()).unwrap();
    let report = fsck(dir.path()).unwrap();
    assert!(report.unreferenced_blobs.is_empty(), "{report}");
    drop(db);
    let db = Database::open_dir(dir.path()).unwrap();
    assert_blobs_are_tiles(&db, "reopened");
    let q = db
        .range_query("m", &"[0:39,0:19]".parse().unwrap())
        .unwrap();
    assert_eq!(q.array, expected);
    db.save(dir.path()).unwrap();
    assert!(fsck(dir.path()).unwrap().is_clean());
}

/// Removes every `"key": {...}` member from a JSON text. The member is
/// never first in its object, so the preceding comma is removed with it.
fn strip_json_members(text: &str, key: &str) -> String {
    let needle = format!("\"{key}\"");
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(pos) = rest.find(&needle) {
        let b = rest.as_bytes();
        let mut start = pos;
        while start > 0 && (b[start - 1] as char).is_whitespace() {
            start -= 1;
        }
        assert_eq!(b[start - 1], b',', "member must follow a comma");
        start -= 1;
        let mut k = pos + needle.len();
        while (b[k] as char).is_whitespace() {
            k += 1;
        }
        assert_eq!(b[k], b':');
        k += 1;
        while (b[k] as char).is_whitespace() {
            k += 1;
        }
        assert_eq!(b[k], b'{', "member value must be an object");
        let mut depth = 1;
        k += 1;
        while depth > 0 {
            match b[k] {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
            k += 1;
        }
        out.push_str(&rest[..start]);
        rest = &rest[k..];
    }
    out.push_str(rest);
    out
}

#[test]
fn pre_synopsis_catalogs_hydrate_and_prune_on_open() {
    // A catalog written before synopses existed has no "synopsis" tile
    // fields; opening it must rescan payloads, prune with the rebuilt
    // synopses, and leave a directory that commits clean.
    let dir = tilestore_testkit::tempdir().unwrap();
    {
        let db = phase0(dir.path());
        db.insert("m", &data_b()).unwrap();
        db.save(dir.path()).unwrap();
    }
    let path = dir.path().join(CATALOG_FILE);
    let text = fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"synopsis\""), "modern catalog has synopses");
    let stripped = strip_json_members(&text, "synopsis");
    assert!(!stripped.contains("synopsis"));
    fs::write(&path, stripped).unwrap();

    let db = Database::open_dir(dir.path()).unwrap();
    let region = "[0:39,0:19]".parse().unwrap();
    assert_predicate_reads_clean(&db, &region, 2, "pre-synopsis catalog");
    // Rebuilt synopses actually prune: every tile of data_a tops out at
    // 1920 < 2000, so a `>= 2000` read skips at least one tile.
    let pred = CellPredicate {
        op: PredOp::Ge,
        literal: 2000.0,
    };
    let q = db.range_query_where("m", &region, Some(&pred)).unwrap();
    assert!(q.stats.tiles_pruned > 0, "stats: {:?}", q.stats);
    db.save(dir.path()).unwrap();
    let report = fsck(dir.path()).unwrap();
    assert!(report.is_clean(), "fsck dirty after hydration: {report}");
    assert!(report.unreferenced_blobs.is_empty());
}

#[test]
fn crash_with_a_live_snapshot_recovers_cleanly() {
    // A snapshot pinned at crash time must not leak retired blobs into the
    // durable state: the commit taken while the snapshot was live exports
    // them as free space, so recovery finds a clean directory.
    let dir = tilestore_testkit::tempdir().unwrap();
    {
        let db = phase0(dir.path());
        let snap = db.begin_read();
        db.retile("m", Scheme::Aligned(AlignedTiling::regular(2, 2048)))
            .unwrap();
        db.save(dir.path()).unwrap();
        // The snapshot still reads pre-retile state right up to the "crash".
        let q = snap
            .range_query("m", &"[0:19,0:19]".parse().unwrap())
            .unwrap();
        assert_eq!(q.array, data_a());
        // Process dies here with the snapshot live: no Drop-side reclaim
        // runs for the retired blobs.
        std::mem::forget(snap);
    }
    let report = fsck(dir.path()).unwrap();
    assert!(report.is_clean(), "fsck dirty after crash: {report}");
    let db = Database::open_dir(dir.path()).unwrap();
    assert_eq!(db.catalog_epoch(), 2);
    let q = db
        .range_query("m", &"[0:39,0:19]".parse().unwrap())
        .unwrap();
    assert_eq!(q.array, expected_contents(1));
    db.save(dir.path()).unwrap();
    assert!(fsck(dir.path()).unwrap().is_clean());
}
