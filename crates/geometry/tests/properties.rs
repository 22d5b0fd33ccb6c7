//! Property-based tests for the geometry invariants listed in DESIGN.md §7.

use tilestore_geometry::{
    copy_region, copy_region_segmented, difference, uncovered, Domain, GridIter, Point, PointIter,
    RowMajor, RunIter, Segmented,
};
use tilestore_testkit::prop::{check, Source};
use tilestore_testkit::{prop_assert, prop_assert_eq};

const CASES: u32 = 256;

/// Generator: a small random domain of dimensionality 1..=4.
fn small_domain(s: &mut Source) -> Domain {
    let d = s.usize_in(1, 4);
    let bounds: Vec<(i64, i64)> = (0..d)
        .map(|_| {
            let lo = s.i64_in(-20, 19);
            let ext = s.i64_in(0, 7);
            (lo, lo + ext)
        })
        .collect();
    Domain::from_bounds(&bounds).unwrap()
}

/// Generator: a domain plus a random subdomain of it.
fn domain_and_sub(s: &mut Source) -> (Domain, Domain) {
    let dom = small_domain(s);
    let bounds: Vec<(i64, i64)> = dom
        .ranges()
        .iter()
        .map(|r| {
            let a = s.i64_in(r.lo(), r.hi());
            let b = s.i64_in(a, r.hi());
            (a, b)
        })
        .collect();
    let sub = Domain::from_bounds(&bounds).unwrap();
    (dom, sub)
}

#[test]
fn offset_point_round_trip() {
    check(
        "offset_point_round_trip",
        CASES,
        |s| domain_and_sub(s).0,
        |dom| {
            let layout = RowMajor::new(dom.clone()).unwrap();
            let n = layout.cells().min(256);
            for off in 0..n {
                let p = layout.point_at(off).unwrap();
                prop_assert_eq!(layout.offset_of(&p).unwrap(), off);
            }
            Ok(())
        },
    );
}

#[test]
fn point_iter_is_sorted_and_complete() {
    check(
        "point_iter_is_sorted_and_complete",
        CASES,
        small_domain,
        |dom| {
            let pts: Vec<Point> = PointIter::new(dom.clone()).collect();
            prop_assert_eq!(pts.len() as u64, dom.cells());
            prop_assert!(pts.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(pts.iter().all(|p| dom.contains_point(p)));
            Ok(())
        },
    );
}

#[test]
fn runs_cover_subdomain_exactly_once() {
    check(
        "runs_cover_subdomain_exactly_once",
        CASES,
        domain_and_sub,
        |(dom, sub)| {
            let runs: Vec<_> = RunIter::new(dom, sub).unwrap().collect();
            let covered: u64 = runs.iter().map(|r| r.len).sum();
            prop_assert_eq!(covered, sub.cells());
            // Runs translate to strictly increasing, non-overlapping inner
            // spans, and each starts in `dom` where its first cell lies.
            let (outer, inner) = (
                RowMajor::new(dom.clone()).unwrap(),
                RowMajor::new(sub.clone()).unwrap(),
            );
            let mut expected_inner = 0u64;
            for r in &runs {
                prop_assert_eq!(r.inner_offset, expected_inner);
                let first = inner.point_at(r.inner_offset).unwrap();
                prop_assert_eq!(r.outer_offset, outer.offset_of(&first).unwrap());
                expected_inner += r.len;
            }
            Ok(())
        },
    );
}

#[test]
fn intersection_is_commutative_and_contained() {
    check(
        "intersection_is_commutative_and_contained",
        CASES,
        |s| (small_domain(s), small_domain(s)),
        |(a, b)| {
            if a.dim() == b.dim() {
                let ab = a.intersection(b);
                let ba = b.intersection(a);
                prop_assert_eq!(ab.clone(), ba);
                if let Some(i) = ab {
                    prop_assert!(a.contains_domain(&i));
                    prop_assert!(b.contains_domain(&i));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn hull_contains_both() {
    check(
        "hull_contains_both",
        CASES,
        |s| (small_domain(s), small_domain(s)),
        |(a, b)| {
            if a.dim() == b.dim() {
                let h = a.hull(b).unwrap();
                prop_assert!(h.contains_domain(a));
                prop_assert!(h.contains_domain(b));
            }
            Ok(())
        },
    );
}

#[test]
fn difference_partitions_minuend() {
    check(
        "difference_partitions_minuend",
        CASES,
        |s| (small_domain(s), small_domain(s)),
        |(a, b)| {
            if a.dim() == b.dim() {
                let pieces = difference(a, b);
                let in_overlap = a.intersection(b).map_or(0, |i| i.cells());
                let piece_cells: u64 = pieces.iter().map(Domain::cells).sum();
                prop_assert_eq!(piece_cells + in_overlap, a.cells());
                for (i, p) in pieces.iter().enumerate() {
                    prop_assert!(a.contains_domain(p));
                    prop_assert!(!p.intersects(b));
                    for q in &pieces[i + 1..] {
                        prop_assert!(!p.intersects(q));
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn uncovered_is_disjoint_complement() {
    check(
        "uncovered_is_disjoint_complement",
        CASES,
        domain_and_sub,
        |(dom, sub)| {
            let rest = uncovered(dom, std::slice::from_ref(sub)).unwrap();
            let total: u64 = rest.iter().map(Domain::cells).sum();
            prop_assert_eq!(total + sub.cells(), dom.cells());
            Ok(())
        },
    );
}

#[test]
fn grid_partitions_domain() {
    check(
        "grid_partitions_domain",
        CASES,
        |s| {
            let dom = small_domain(s);
            let fmt: Vec<u64> = (0..dom.dim()).map(|_| s.u64_in(1, 4)).collect();
            (dom, fmt)
        },
        |(dom, fmt)| {
            let blocks: Vec<Domain> = GridIter::new(dom.clone(), fmt).unwrap().collect();
            let total: u64 = blocks.iter().map(Domain::cells).sum();
            prop_assert_eq!(total, dom.cells());
            for (i, a) in blocks.iter().enumerate() {
                prop_assert!(dom.contains_domain(a));
                for b in &blocks[i + 1..] {
                    prop_assert!(!a.intersects(b));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn copy_region_round_trips() {
    check(
        "copy_region_round_trips",
        CASES,
        domain_and_sub,
        |(dom, sub)| {
            // Write a recognizable pattern, copy out the subregion, copy it back
            // into a cleared buffer, and check only the subregion survived.
            let cells = dom.cells() as usize;
            let src: Vec<u8> = (0..cells).map(|i| (i % 251) as u8).collect();
            let mut extracted = vec![0u8; sub.cells() as usize];
            copy_region(dom, &src, sub, &mut extracted, sub, 1).unwrap();
            let mut rebuilt = vec![0xFFu8; cells];
            copy_region(sub, &extracted, dom, &mut rebuilt, sub, 1).unwrap();
            let layout = RowMajor::new(dom.clone()).unwrap();
            for p in PointIter::new(dom.clone()) {
                let off = layout.offset_of(&p).unwrap() as usize;
                if sub.contains_point(&p) {
                    prop_assert_eq!(rebuilt[off], src[off]);
                } else {
                    prop_assert_eq!(rebuilt[off], 0xFF);
                }
            }
            Ok(())
        },
    );
}

/// Generator: two distinct domains of the same dimensionality that overlap.
fn overlapping_pair(s: &mut Source) -> (Domain, Domain) {
    let a = small_domain(s);
    let mut bounds: Vec<(i64, i64)> = a
        .ranges()
        .iter()
        .map(|r| {
            let lo = s.i64_in(r.lo() - 5, r.hi());
            let hi = s.i64_in(lo.max(r.lo()), r.hi() + 5);
            (lo, hi)
        })
        .collect();
    if Domain::from_bounds(&bounds).unwrap() == a {
        bounds[0].1 += 1;
    }
    (a, Domain::from_bounds(&bounds).unwrap())
}

#[test]
fn copy_region_matches_cellwise_reference() {
    check(
        "copy_region_matches_cellwise_reference",
        CASES,
        |s| (overlapping_pair(s), s.usize_in(1, 8)),
        |((src_dom, dst_dom), cell_size)| {
            let cs = *cell_size;
            let region = src_dom.intersection(dst_dom).unwrap();
            let src: Vec<u8> = (0..src_dom.cells() as usize * cs)
                .map(|i| (i % 251) as u8)
                .collect();
            let mut dst = vec![0xEEu8; dst_dom.cells() as usize * cs];
            let copied = copy_region(src_dom, &src, dst_dom, &mut dst, &region, cs).unwrap();
            prop_assert_eq!(copied, region.cells());
            let (src_layout, dst_layout) = (
                RowMajor::new(src_dom.clone()).unwrap(),
                RowMajor::new(dst_dom.clone()).unwrap(),
            );
            for p in PointIter::new(dst_dom.clone()) {
                let at = dst_layout.offset_of(&p).unwrap() as usize * cs;
                let cell = &dst[at..at + cs];
                if region.contains_point(&p) {
                    let from = src_layout.offset_of(&p).unwrap() as usize * cs;
                    prop_assert_eq!(cell, &src[from..from + cs]);
                } else {
                    prop_assert!(cell.iter().all(|&b| b == 0xEE));
                }
            }
            Ok(())
        },
    );
}

/// The segmented source is the contiguous one cut into pieces: a stream of
/// `skip` header bytes plus the cells, split into `seg`-byte segments (the
/// way a tile stream sits in page frames), pastes exactly the bytes the
/// contiguous cells do, for any segment length and header skip, rows
/// straddling segment boundaries included.
#[test]
fn segmented_copy_region_matches_contiguous() {
    let straddles = std::cell::Cell::new(0u64);
    check(
        "segmented_copy_region_matches_contiguous",
        CASES,
        |s| {
            (
                overlapping_pair(s),
                s.usize_in(1, 8),
                s.usize_in(1, 64),
                s.usize_in(0, 12),
            )
        },
        |((src_dom, dst_dom), cell_size, seg, skip)| {
            let (cs, seg, skip) = (*cell_size, *seg, *skip);
            let region = src_dom.intersection(dst_dom).unwrap();
            let cells: Vec<u8> = (0..src_dom.cells() as usize * cs)
                .map(|i| (i * 7 % 251) as u8)
                .collect();
            let mut stream = vec![0xA5u8; skip];
            stream.extend_from_slice(&cells);
            let segments: Vec<Vec<u8>> = stream.chunks(seg).map(<[u8]>::to_vec).collect();
            let mut want = vec![0xEEu8; dst_dom.cells() as usize * cs];
            let mut got = want.clone();
            let n = copy_region(src_dom, &cells, dst_dom, &mut want, &region, cs).unwrap();
            let src = Segmented::new(&segments, seg, skip);
            let m = copy_region_segmented(src_dom, src, dst_dom, &mut got, &region, cs).unwrap();
            prop_assert_eq!(n, m);
            prop_assert_eq!(&got, &want);
            for run in RunIter::new(src_dom, &region).unwrap() {
                let start = skip + run.outer_offset as usize * cs;
                let end = start + run.len as usize * cs;
                if start / seg != (end - 1) / seg {
                    straddles.set(straddles.get() + 1);
                }
            }
            Ok(())
        },
    );
    assert!(straddles.get() > 0, "no run straddled a segment boundary");
}
