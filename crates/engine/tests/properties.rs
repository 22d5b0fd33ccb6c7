//! Property tests for the engine's core invariant: for any array, any
//! tiling scheme and any query region, `insert` followed by `range_query`
//! returns exactly the original cells (default value outside coverage).

use tilestore_engine::{
    AggKind, AggValue, Array, CellPredicate, CellType, Database, MddType, PredOp, TileSynopsis,
};
use tilestore_geometry::{Domain, Point, PointIter};
use tilestore_testkit::prop::{check, Source};
use tilestore_testkit::{prop_assert, prop_assert_eq};
use tilestore_tiling::{
    AlignedTiling, AreasOfInterestTiling, AxisPartition, DirectionalTiling, Scheme, SingleTile,
    TileConfig,
};

fn domain(s: &mut Source, dim: usize) -> Domain {
    let bounds: Vec<(i64, i64)> = (0..dim)
        .map(|_| {
            let lo = s.i64_in(-20, 19);
            let ext = s.i64_in(1, 24);
            (lo, lo + ext)
        })
        .collect();
    Domain::from_bounds(&bounds).unwrap()
}

fn subdomain(s: &mut Source, dom: &Domain) -> Domain {
    let bounds: Vec<(i64, i64)> = dom
        .ranges()
        .iter()
        .map(|r| {
            let a = s.i64_in(r.lo(), r.hi());
            let b = s.i64_in(a, r.hi());
            (a, b)
        })
        .collect();
    Domain::from_bounds(&bounds).unwrap()
}

fn max_size(s: &mut Source) -> u64 {
    [512u64, 2048, 16 * 1024][s.usize_in(0, 2)]
}

/// A random scheme of any of the implemented families.
fn scheme(s: &mut Source, dom: &Domain) -> Scheme {
    let dim = dom.dim();
    match s.weighted(&[1, 1, 1, 1, 1]) {
        0 => Scheme::Aligned(AlignedTiling::regular(dim, max_size(s))),
        1 => Scheme::SingleTile(SingleTile),
        2 => {
            let star_axis = s.usize_in(0, dim - 1);
            let entries: Vec<tilestore_tiling::Extent> = (0..dim)
                .map(|i| {
                    if i == star_axis {
                        tilestore_tiling::Extent::Unbounded
                    } else {
                        tilestore_tiling::Extent::Fixed(1)
                    }
                })
                .collect();
            Scheme::Aligned(AlignedTiling::new(
                TileConfig::new(entries).unwrap(),
                max_size(s),
            ))
        }
        3 => {
            let f = 0.2 + 0.6 * s.f64_unit();
            let r = dom.axis(0);
            let cut = r.lo() + ((r.extent() as f64) * f) as i64;
            let points = if cut > r.lo() && cut < r.hi() {
                vec![r.lo(), cut, r.hi()]
            } else {
                vec![r.lo(), r.hi()]
            };
            Scheme::Directional(DirectionalTiling::new(
                vec![AxisPartition::new(0, points)],
                2048,
            ))
        }
        _ => {
            let areas = s.vec_of(1, 2, |s| subdomain(s, dom));
            Scheme::AreasOfInterest(AreasOfInterestTiling::new(areas, 4096))
        }
    }
}

#[test]
fn insert_query_round_trip() {
    check(
        "insert_query_round_trip",
        64,
        |s| {
            let dom = domain(s, 2);
            let sch = scheme(s, &dom);
            let query = subdomain(s, &dom);
            (dom, sch, query)
        },
        |(dom, sch, query)| {
            let db = Database::in_memory().unwrap();
            db.create_object(
                "obj",
                MddType::new(
                    CellType::of::<u16>(),
                    tilestore_geometry::DefDomain::unlimited(2).unwrap(),
                ),
                sch.clone(),
            )
            .unwrap();
            let data = Array::from_fn(dom.clone(), |p| (p[0] * 131 + p[1] * 7) as u16).unwrap();
            db.insert("obj", &data).unwrap();

            // Querying any subregion returns exactly the original cells.
            let q = db.range_query("obj", query).unwrap();
            prop_assert_eq!(&q.array, &data.extract(query).unwrap());
            prop_assert_eq!(q.stats.cells_copied, query.cells());
            prop_assert_eq!(q.stats.cells_defaulted, 0);
            // Tiles processed cover at least the query.
            prop_assert!(q.stats.cells_processed >= query.cells());
            Ok(())
        },
    );
}

#[test]
fn partial_coverage_reads_default_outside() {
    check(
        "partial_coverage_reads_default_outside",
        64,
        |s| (domain(s, 2), domain(s, 2)),
        |(dom, probe)| {
            let db = Database::in_memory().unwrap();
            db.create_object(
                "obj",
                MddType::new(
                    CellType::with_default("u16", 0xABu16.to_le_bytes().to_vec()),
                    tilestore_geometry::DefDomain::unlimited(2).unwrap(),
                ),
                Scheme::Aligned(AlignedTiling::regular(2, 1024)),
            )
            .unwrap();
            let data = Array::from_fn(dom.clone(), |p| (p[0] + p[1] + 1000) as u16).unwrap();
            db.insert("obj", &data).unwrap();

            let out = db.range_query("obj", probe).unwrap().array;
            let layout = tilestore_geometry::RowMajor::new(probe.clone()).unwrap();
            for p in PointIter::new(probe.clone()).take(512) {
                let got: u16 = out.get(&p).unwrap();
                if dom.contains_point(&p) {
                    prop_assert_eq!(got, (p[0] + p[1] + 1000) as u16);
                } else {
                    prop_assert_eq!(
                        got,
                        0xAB,
                        "point {} offset {}",
                        p.clone(),
                        layout.offset_of(&p).unwrap()
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn retile_preserves_content() {
    check(
        "retile_preserves_content",
        64,
        |s| {
            let dom = domain(s, 2);
            let s1 = scheme(s, &dom);
            let s2 = scheme(s, &dom);
            (dom, s1, s2)
        },
        |(dom, s1, s2)| {
            let db = Database::in_memory().unwrap();
            db.create_object(
                "obj",
                MddType::new(
                    CellType::of::<u16>(),
                    tilestore_geometry::DefDomain::unlimited(2).unwrap(),
                ),
                s1.clone(),
            )
            .unwrap();
            let data = Array::from_fn(dom.clone(), |p| (p[0] * 3 + p[1]) as u16).unwrap();
            db.insert("obj", &data).unwrap();
            db.retile("obj", s2.clone()).unwrap();
            let out = db.range_query("obj", dom).unwrap().array;
            prop_assert_eq!(out, data);
            Ok(())
        },
    );
}

#[test]
fn point_queries_agree_with_bulk() {
    check(
        "point_queries_agree_with_bulk",
        64,
        |s| (domain(s, 3), s.next_u64()),
        |(dom, seed)| {
            let db = Database::in_memory().unwrap();
            db.create_object(
                "vol",
                MddType::new(
                    CellType::of::<u32>(),
                    tilestore_geometry::DefDomain::unlimited(3).unwrap(),
                ),
                Scheme::Aligned(AlignedTiling::regular(3, 2048)),
            )
            .unwrap();
            let data =
                Array::from_fn(dom.clone(), |p| (p[0] * 10007 + p[1] * 101 + p[2]) as u32).unwrap();
            db.insert("vol", &data).unwrap();
            // Probe three pseudo-random points.
            let mut x = seed | 1;
            for _ in 0..3 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let coords: Vec<i64> = (0..3)
                    .map(|a| {
                        let r = dom.axis(a);
                        r.lo() + ((x >> (a * 16)) % r.extent().max(1)) as i64
                    })
                    .collect();
                let p = Point::new(coords).unwrap();
                let cell = Domain::cell(&p);
                let one = db.range_query("vol", &cell).unwrap().array;
                prop_assert_eq!(one.get::<u32>(&p).unwrap(), data.get::<u32>(&p).unwrap());
            }
            Ok(())
        },
    );
}

/// A random cell predicate whose literal lands in and around the value
/// range the data functions below produce (u16 cells, so 0..=65535 after
/// wrapping), with occasional fractional literals that no cell equals.
fn cell_predicate(s: &mut Source) -> CellPredicate {
    let op = [
        PredOp::Gt,
        PredOp::Ge,
        PredOp::Lt,
        PredOp::Le,
        PredOp::Eq,
        PredOp::Ne,
    ][s.usize_in(0, 5)];
    let literal = match s.usize_in(0, 2) {
        // A value the data function actually produces somewhere.
        0 => (s.i64_in(-25, 25) * 131 + s.i64_in(-25, 25) * 7) as u16 as f64,
        // Anywhere in (and slightly outside) the representable range.
        1 => s.i64_in(-100, 66_000) as f64,
        // Fractional: equality can never hold, comparisons still split.
        _ => s.i64_in(0, 5_000) as f64 + 0.5,
    };
    CellPredicate { op, literal }
}

/// Predicate pushdown must be pure optimization: for any array, tiling and
/// predicate, the pruned masked read is byte-identical to masking a full
/// scan cell-by-cell, and filtered aggregates agree with the masked array.
#[test]
fn predicate_pruning_matches_full_scan() {
    check(
        "predicate_pruning_matches_full_scan",
        64,
        |s| {
            let dom = domain(s, 2);
            let sch = scheme(s, &dom);
            let query = subdomain(s, &dom);
            let pred = cell_predicate(s);
            (dom, sch, query, pred)
        },
        |(dom, sch, query, pred)| {
            let db = Database::in_memory().unwrap();
            db.create_object(
                "obj",
                MddType::new(
                    CellType::of::<u16>(),
                    tilestore_geometry::DefDomain::unlimited(2).unwrap(),
                ),
                sch.clone(),
            )
            .unwrap();
            let value = |p: &Point| (p[0] * 131 + p[1] * 7) as u16;
            let data = Array::from_fn(dom.clone(), &value).unwrap();
            db.insert("obj", &data).unwrap();

            // The reference result: a full scan masked cell-by-cell in
            // plain test code (failing cells read as the default, 0).
            let expected = Array::from_fn(query.clone(), |p| {
                let v = value(p);
                if pred.matches(f64::from(v)) {
                    v
                } else {
                    0
                }
            })
            .unwrap();

            let q = db.range_query_where("obj", query, Some(pred)).unwrap();
            prop_assert_eq!(&q.array, &expected);
            let total_tiles = db.object("obj").unwrap().tile_count() as u64;
            prop_assert!(
                q.stats.tiles_pruned + q.stats.tiles_read <= total_tiles,
                "pruned {} + read {} > {} tiles",
                q.stats.tiles_pruned,
                q.stats.tiles_read,
                total_tiles
            );

            // Filtered aggregates agree with the masked reference array.
            let cells: Vec<u16> = expected.to_cells().unwrap();
            let snap = db.begin_read();
            let (count, _) = snap
                .aggregate_where("obj", query, AggKind::CountNonDefault, Some(pred))
                .unwrap();
            prop_assert_eq!(
                count,
                AggValue::Count(cells.iter().filter(|&&v| v != 0).count() as u64)
            );
            let (sum, _) = snap
                .aggregate_where("obj", query, AggKind::Sum, Some(pred))
                .unwrap();
            let expect_sum: f64 = cells.iter().map(|&v| f64::from(v)).sum();
            prop_assert_eq!(sum, AggValue::Number(expect_sum));
            let (max, _) = snap
                .aggregate_where("obj", query, AggKind::Max, Some(pred))
                .unwrap();
            let expect_max = cells.iter().copied().max().map(f64::from).unwrap();
            prop_assert_eq!(max, AggValue::Number(expect_max));
            Ok(())
        },
    );
}

/// Regression (PR 6): an all-NaN tile must not be pruned under `!=` — NaN
/// satisfies every `!=` comparison, so pruning would drop matching cells.
/// The synopsis excludes NaN from its extrema and bins, which makes the
/// `has_nan` flag the only thing blocking the constant-tile rule.
#[test]
fn all_nan_tile_ne_is_never_pruned() {
    let cell = CellType::of::<f64>();
    let mut payload = Vec::new();
    for _ in 0..4 {
        payload.extend_from_slice(&f64::NAN.to_le_bytes());
    }
    let syn = TileSynopsis::scan(&cell, &payload);
    assert!(syn.has_nan());
    assert_eq!(syn.bins(), 0);
    let p = CellPredicate {
        op: PredOp::Ne,
        literal: 0.0,
    };
    // NaN != 0.0 is true, so every cell matches and pruning is unsound.
    assert!(p.matches(f64::NAN));
    assert!(!p.prunes_tile(&syn), "all-NaN tile pruned under !=");
    assert!(p.prune_rule(&syn).is_none());
}

/// EXPLAIN must be the executor's decision procedure, not a description of
/// it: for any array, tiling, region and predicate, the report's fetched
/// and pruned tile counts reconcile exactly with the executed statement's
/// `tiles_read` / `tiles_pruned` counters — for masked range reads and for
/// every condenser kind.
#[test]
fn explain_reconciles_with_executor_counters() {
    check(
        "explain_reconciles_with_executor_counters",
        64,
        |s| {
            let dom = domain(s, 2);
            let sch = scheme(s, &dom);
            let query = subdomain(s, &dom);
            let pred = cell_predicate(s);
            let with_pred = s.bool();
            let kind = s.usize_in(0, 6);
            (dom, sch, query, pred, with_pred, kind)
        },
        |(dom, sch, query, pred, with_pred, kind)| {
            let db = Database::in_memory().unwrap();
            db.create_object(
                "obj",
                MddType::new(
                    CellType::of::<u16>(),
                    tilestore_geometry::DefDomain::unlimited(2).unwrap(),
                ),
                sch.clone(),
            )
            .unwrap();
            let data = Array::from_fn(dom.clone(), |p| (p[0] * 131 + p[1] * 7) as u16).unwrap();
            db.insert("obj", &data).unwrap();
            let snap = db.begin_read();
            let predicate = with_pred.then_some(pred);

            // Range read: plan first, then execute, same snapshot.
            let plan = snap.explain_range("obj", query, predicate).unwrap();
            let q = snap.range_query_where("obj", query, predicate).unwrap();
            prop_assert_eq!(
                plan.fetched(),
                q.stats.tiles_read,
                "range fetched mismatch: {:?}",
                plan
            );
            prop_assert_eq!(
                plan.pruned(),
                q.stats.tiles_pruned,
                "range pruned mismatch: {:?}",
                plan
            );
            prop_assert_eq!(
                plan.tiles.len() as u64,
                q.stats.tiles_read + q.stats.tiles_pruned
            );

            // Condenser: the aggregate path adds the synopsis short-circuit.
            let agg = [
                AggKind::Sum,
                AggKind::Avg,
                AggKind::Min,
                AggKind::Max,
                AggKind::CountNonDefault,
                AggKind::SomeNonDefault,
                AggKind::AllNonDefault,
            ][*kind];
            let plan = snap
                .explain_aggregate("obj", query, agg, predicate)
                .unwrap();
            let (_, stats) = snap.aggregate_where("obj", query, agg, predicate).unwrap();
            prop_assert_eq!(
                plan.fetched(),
                stats.tiles_read,
                "{:?} fetched mismatch: {:?}",
                agg,
                plan
            );
            prop_assert_eq!(
                plan.pruned(),
                stats.tiles_pruned,
                "{:?} pruned mismatch: {:?}",
                agg,
                plan
            );
            Ok(())
        },
    );
}

/// Every tile of every object must carry a synopsis that agrees exactly
/// with a fresh scan of its payload, and the blob directory must hold
/// exactly the tiles' blobs — across insert, update, delete and retile.
#[test]
fn synopses_stay_consistent_under_mutation() {
    check(
        "synopses_stay_consistent_under_mutation",
        48,
        |s| {
            let base = domain(s, 2);
            let patches = s.vec_of(1, 4, |s| (domain(s, 2), s.u16(), s.bool()));
            let final_scheme = scheme(s, &base);
            (base, patches, final_scheme)
        },
        |(base, patches, final_scheme)| {
            let db = Database::in_memory().unwrap();
            db.create_object(
                "obj",
                MddType::new(
                    CellType::of::<u16>(),
                    tilestore_geometry::DefDomain::unlimited(2).unwrap(),
                ),
                Scheme::Aligned(AlignedTiling::regular(2, 512)),
            )
            .unwrap();
            let initial = Array::from_fn(base.clone(), |p| (p[0] * 31 + p[1] + 1) as u16).unwrap();
            db.insert("obj", &initial).unwrap();
            assert_synopses_consistent(&db)?;

            for (region, value, is_delete) in patches {
                if *is_delete {
                    db.delete_region("obj", region).unwrap();
                } else {
                    let patch = Array::filled(region.clone(), &value.to_le_bytes()).unwrap();
                    db.update("obj", &patch).unwrap();
                }
                assert_synopses_consistent(&db)?;
            }
            db.retile("obj", final_scheme.clone()).unwrap();
            assert_synopses_consistent(&db)
        },
    );
}

fn assert_synopses_consistent(
    db: &Database<tilestore_storage::MemPageStore>,
) -> Result<(), String> {
    let meta = db.object("obj").unwrap();
    for (i, tile) in meta.tiles.iter().enumerate() {
        let Some(syn) = &tile.synopsis else {
            return Err(format!("tile {i} over {} has no synopsis", tile.domain));
        };
        prop_assert_eq!(syn.cells(), tile.domain.cells());
        prop_assert!(syn.non_default() <= syn.cells());
        // null_mask is zero exactly when no cell holds the default.
        prop_assert_eq!(syn.null_mask() == 0, syn.non_default() == syn.cells());
        prop_assert!(syn.is_numeric() && !syn.has_nan());
        if syn.cells() > 0 {
            prop_assert!(syn.min().unwrap() <= syn.max().unwrap());
        }
        // The stored synopsis agrees exactly with a fresh scan of the
        // tile's cells (a range query of the tile domain returns them in
        // storage order).
        let payload = db.range_query("obj", &tile.domain).unwrap().array;
        let fresh = TileSynopsis::scan(&meta.mdd_type.cell, payload.bytes());
        prop_assert_eq!(*syn, fresh, "tile {} over {}", i, tile.domain);
    }
    prop_assert_eq!(db.blob_store().blob_count(), meta.tiles.len());
    Ok(())
}

/// Update/delete model check: the stored object must always agree with
/// a shadow dense array maintained by plain writes.
#[test]
fn update_and_delete_match_shadow_model() {
    check(
        "update_and_delete_match_shadow_model",
        64,
        |s| {
            let base = domain(s, 2);
            let patches = s.vec_of(1, 5, |s| (domain(s, 2), s.u16(), s.bool()));
            (base, patches)
        },
        |(base, patches)| {
            let db = Database::in_memory().unwrap();
            db.create_object(
                "obj",
                MddType::new(
                    CellType::of::<u16>(),
                    tilestore_geometry::DefDomain::unlimited(2).unwrap(),
                ),
                Scheme::Aligned(AlignedTiling::regular(2, 512)),
            )
            .unwrap();
            let initial = Array::from_fn(base.clone(), |p| (p[0] * 31 + p[1] + 1) as u16).unwrap();
            db.insert("obj", &initial).unwrap();

            // Shadow model over the hull of everything we will touch.
            let mut world = base.clone();
            for (d, _, _) in patches {
                world = world.hull(d).unwrap();
            }
            let mut shadow = Array::filled(world.clone(), &[0, 0]).unwrap();
            shadow.paste(&initial).unwrap();

            for (region, value, is_delete) in patches {
                if *is_delete {
                    db.delete_region("obj", region).unwrap();
                    shadow.fill(region, &[0, 0]).unwrap();
                } else {
                    let patch = Array::filled(region.clone(), &value.to_le_bytes()).unwrap();
                    db.update("obj", &patch).unwrap();
                    shadow.paste(&patch).unwrap();
                }
            }

            let out = db.range_query("obj", &world).unwrap().array;
            prop_assert_eq!(out, shadow);
            Ok(())
        },
    );
}
