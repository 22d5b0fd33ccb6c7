//! Property test: the R+-tree search must agree with a linear scan for any
//! entry set and query, including after random removals and for bulk loads.

use tilestore_geometry::Domain;
use tilestore_index::RPlusTree;
use tilestore_testkit::prop::{check, Source};
use tilestore_testkit::{prop_assert, prop_assert_eq};

fn domain(s: &mut Source, dim: usize) -> Domain {
    let bounds: Vec<(i64, i64)> = (0..dim)
        .map(|_| {
            let lo = s.i64_in(-40, 39);
            let ext = s.i64_in(0, 11);
            (lo, lo + ext)
        })
        .collect();
    Domain::from_bounds(&bounds).unwrap()
}

#[test]
fn tree_search_equals_linear_scan() {
    check(
        "tree_search_equals_linear_scan",
        64,
        |s| {
            let entries = s.vec_of(0, 119, |s| domain(s, 2));
            let queries = s.vec_of(1, 7, |s| domain(s, 2));
            (entries, queries, s.usize_in(2, 9))
        },
        |(entries, queries, fanout)| {
            let mut tree = RPlusTree::with_fanout(2, *fanout).unwrap();
            for (i, dom) in entries.iter().enumerate() {
                tree.insert(dom.clone(), i as u64).unwrap();
            }
            prop_assert_eq!(tree.len(), entries.len());
            for q in queries {
                let mut a = tree.search(q).hits;
                a.sort_unstable();
                let b: Vec<u64> = (0..entries.len() as u64)
                    .filter(|&i| entries[i as usize].intersects(q))
                    .collect();
                prop_assert_eq!(a, b);
            }
            Ok(())
        },
    );
}

#[test]
fn bulk_load_equals_incremental() {
    check(
        "bulk_load_equals_incremental",
        64,
        |s| {
            let entries = s.vec_of(0, 99, |s| domain(s, 3));
            let query = domain(s, 3);
            (entries, query, s.usize_in(2, 11))
        },
        |(entries, query, fanout)| {
            let pairs: Vec<(Domain, u64)> = entries
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, d)| (d, i as u64))
                .collect();
            let bulk = RPlusTree::bulk_load(3, *fanout, pairs.clone()).unwrap();
            let mut inc = RPlusTree::with_fanout(3, *fanout).unwrap();
            for (d, p) in pairs {
                inc.insert(d, p).unwrap();
            }
            let mut a = bulk.search(query).hits;
            let mut b = inc.search(query).hits;
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
            Ok(())
        },
    );
}

#[test]
fn removal_preserves_search_correctness() {
    check(
        "removal_preserves_search_correctness",
        64,
        |s| {
            let entries = s.vec_of(1, 79, |s| domain(s, 2));
            let remove_mask = s.vec_of(1, 79, Source::bool);
            let query = domain(s, 2);
            (entries, remove_mask, query)
        },
        |(entries, remove_mask, query)| {
            let mut tree = RPlusTree::with_fanout(2, 4).unwrap();
            for (i, dom) in entries.iter().enumerate() {
                tree.insert(dom.clone(), i as u64).unwrap();
            }
            let mut surviving: Vec<(Domain, u64)> = Vec::new();
            for (i, dom) in entries.iter().enumerate() {
                if remove_mask.get(i).copied().unwrap_or(false) {
                    prop_assert!(tree.remove(dom, i as u64));
                } else {
                    surviving.push((dom.clone(), i as u64));
                }
            }
            prop_assert_eq!(tree.len(), surviving.len());
            let mut a = tree.search(query).hits;
            let mut b: Vec<u64> = surviving
                .iter()
                .filter(|(d, _)| d.intersects(query))
                .map(|&(_, p)| p)
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
            Ok(())
        },
    );
}

/// Any tree shape — bulk-loaded or grown and pruned — survives JSON.
#[test]
fn json_round_trip_for_arbitrary_trees() {
    check(
        "json_round_trip_for_arbitrary_trees",
        64,
        |s| {
            let entries = s.vec_of(0, 59, |s| domain(s, 2));
            let remove_mask = s.vec_of(0, 59, Source::bool);
            (entries, remove_mask, s.usize_in(2, 9))
        },
        |(entries, remove_mask, fanout)| {
            let mut tree = RPlusTree::with_fanout(2, *fanout).unwrap();
            for (i, dom) in entries.iter().enumerate() {
                tree.insert(dom.clone(), i as u64).unwrap();
            }
            for (i, dom) in entries.iter().enumerate() {
                if remove_mask.get(i).copied().unwrap_or(false) {
                    tree.remove(dom, i as u64);
                }
            }
            let text = tilestore_testkit::json::to_string(&tree);
            let back: RPlusTree = tilestore_testkit::json::from_str(&text).unwrap();
            prop_assert_eq!(&back, &tree);
            Ok(())
        },
    );
}
