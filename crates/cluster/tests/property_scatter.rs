//! Property test: for randomized domains, tilings, shard maps, and rasql
//! statements, a cluster of 1/2/4/8 local shards answers byte-identically
//! to a single engine holding the same cells — including seam-straddling
//! regions, degenerate one-slab shards, and shards that own no data.

use std::sync::Arc;

use tilestore_cluster::{ClusterStatement, Coordinator, ShardBackend, ShardMap};
use tilestore_engine::{Array, CellType, Database, MddType, SharedDatabase};
use tilestore_exec::ThreadPool;
use tilestore_geometry::{AxisRange, DefDomain, Domain};
use tilestore_rasql::Value;
use tilestore_testkit::Rng;
use tilestore_tiling::{AlignedTiling, Scheme, SingleTile};

const ITERATIONS: u64 = 24;
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 8];

fn random_domain(rng: &mut Rng, dim: usize) -> Domain {
    let ranges = (0..dim)
        .map(|_| {
            let lo = rng.gen_range(-6i64..7);
            let extent = rng.gen_range(1i64..11);
            AxisRange::new(lo, lo + extent - 1).unwrap()
        })
        .collect();
    Domain::new(ranges).unwrap()
}

fn random_scheme(rng: &mut Rng, dim: usize) -> Scheme {
    if rng.gen_bool(0.25) {
        Scheme::SingleTile(SingleTile)
    } else {
        let budget = [64u64, 256, 1024, 8192][rng.gen_range(0usize..4)];
        Scheme::Aligned(AlignedTiling::regular(dim, budget))
    }
}

/// Random strictly-increasing cuts near (and sometimes beyond) the hull,
/// so some slabs are one cell wide and some shards own nothing.
fn random_map(rng: &mut Rng, dim: usize, hull: &Domain, shards: usize) -> ShardMap {
    if shards == 1 {
        return ShardMap::new(0, vec![]).unwrap();
    }
    let axis = rng.gen_range(0usize..dim);
    let r = &hull.ranges()[axis];
    let mut cuts: Vec<i64> = (0..shards - 1)
        .map(|_| rng.gen_range(r.lo() - 1..r.hi() + 3))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    // Deduping may shrink the list; pad upward past the hull (empty shards).
    let mut next = cuts.last().copied().unwrap_or(r.hi() + 2) + 1;
    while cuts.len() < shards - 1 {
        cuts.push(next);
        next += 1;
    }
    ShardMap::new(axis, cuts).unwrap()
}

fn random_region(rng: &mut Rng, hull: &Domain) -> Domain {
    let ranges = hull
        .ranges()
        .iter()
        .map(|r| {
            let lo = rng.gen_range(r.lo()..r.hi() + 1);
            let hi = rng.gen_range(lo..r.hi() + 1);
            AxisRange::new(lo, hi).unwrap()
        })
        .collect();
    Domain::new(ranges).unwrap()
}

/// Renders `region` as a subscript, drawing each axis's form: `lo:hi`, an
/// open `lo:*` or `*:hi`, or a bare `*` (open bounds resolve against the
/// current domain, which on a cluster is the shards' hull); for `dim >= 2`
/// one axis is sometimes a point, a section that drops it.
fn subscript(rng: &mut Rng, region: &Domain) -> String {
    let dim = region.dim();
    let section = (dim >= 2 && rng.gen_bool(0.3)).then(|| rng.gen_range(0usize..dim));
    let parts: Vec<String> = region
        .ranges()
        .iter()
        .enumerate()
        .map(|(axis, r)| {
            if section == Some(axis) {
                return r.lo().to_string();
            }
            match rng.gen_range(0u32..6) {
                0 => format!("{}:*", r.lo()),
                1 => format!("*:{}", r.hi()),
                2 => "*".to_string(),
                _ => format!("{}:{}", r.lo(), r.hi()),
            }
        })
        .collect();
    format!("[{}]", parts.join(", "))
}

fn random_statement(rng: &mut Rng, hull: &Domain) -> String {
    let region = random_region(rng, hull);
    let sub = subscript(rng, &region);
    let core = match rng.gen_range(0u32..5) {
        0 => "SELECT a FROM a".to_string(),
        1 => format!("SELECT a{sub} FROM a"),
        2 => {
            let agg =
                ["sum_cells", "avg_cells", "max_cells", "min_cells"][rng.gen_range(0usize..4)];
            format!("SELECT {agg}(a{sub}) FROM a")
        }
        3 => {
            let agg = ["count_cells", "some_cells", "all_cells"][rng.gen_range(0usize..3)];
            let k = rng.gen_range(0u32..1000);
            format!("SELECT {agg}(a{sub} > {k}) FROM a")
        }
        _ => {
            let k = rng.gen_range(1u32..100);
            match rng.gen_range(0u32..3) {
                0 => format!("SELECT a{sub} + {k} FROM a"),
                1 => format!("SELECT a{sub} * 2 - {k} FROM a"),
                _ => format!("SELECT a{sub} >= {k} FROM a"),
            }
        }
    };
    if rng.gen_bool(0.4) {
        let op = [">", ">=", "<", "<=", "!=", "="][rng.gen_range(0usize..6)];
        let k = rng.gen_range(0u32..1000);
        format!("{core} WHERE a {op} {k}")
    } else {
        core
    }
}

fn assert_same(ctx: &str, want: &Value, got: &Value) {
    match (want, got) {
        (Value::Array(a), Value::Array(b)) => {
            assert_eq!(a.domain(), b.domain(), "{ctx}: domain");
            assert_eq!(a.bytes(), b.bytes(), "{ctx}: bytes");
        }
        (Value::Number(n), Value::Number(m)) => {
            assert_eq!(n.to_bits(), m.to_bits(), "{ctx}: number");
        }
        (Value::Count(c), Value::Count(d)) => assert_eq!(c, d, "{ctx}: count"),
        (Value::Bool(b), Value::Bool(c)) => assert_eq!(b, c, "{ctx}: bool"),
        (want, got) => panic!("{ctx}: kind mismatch: {want:?} vs {got:?}"),
    }
}

#[test]
fn randomized_cluster_queries_match_single_engine() {
    for iter in 0..ITERATIONS {
        let mut rng = Rng::seed_from_u64(0xC0FF_EE00 ^ iter);
        let dim = rng.gen_range(1usize..4);
        let mdd = MddType::new(CellType::of::<u32>(), DefDomain::unlimited(dim).unwrap());
        let scheme = random_scheme(&mut rng, dim);

        // One or two inserts; two disjoint inserts leave a default-valued gap
        // in the hull, which on some maps becomes a shard with no data at all
        // (the coordinator's locally-computed default piece).
        let first = random_domain(&mut rng, dim);
        let mut arrays = vec![Array::from_fn(first.clone(), |p| {
            let mut h = 0xcbf2_9ce4_8422_2325u64 ^ iter;
            for &x in p.coords() {
                h = (h ^ x as u64).wrapping_mul(0x1000_0000_01b3);
            }
            (h % 1000) as u32
        })
        .unwrap()];
        if rng.gen_bool(0.5) {
            let shifted: Vec<AxisRange> = first
                .ranges()
                .iter()
                .map(|r| {
                    let off = r.extent() as i64 + rng.gen_range(1i64..4);
                    AxisRange::new(r.lo() + off, r.hi() + off).unwrap()
                })
                .collect();
            let second = Domain::new(shifted).unwrap();
            arrays.push(
                Array::from_fn(second, |p| {
                    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ iter;
                    for &x in p.coords() {
                        h = (h ^ x as u64).wrapping_mul(0x1000_0000_01b3);
                    }
                    (h % 1000) as u32
                })
                .unwrap(),
            );
        }

        let single = Database::in_memory().unwrap();
        single
            .create_object("a", mdd.clone(), scheme.clone())
            .unwrap();
        let mut hull = arrays[0].domain().clone();
        for a in &arrays {
            single.insert("a", a).unwrap();
            hull = hull.hull(a.domain()).unwrap();
        }

        let statements: Vec<String> = (0..6).map(|_| random_statement(&mut rng, &hull)).collect();
        let wants: Vec<Value> = statements
            .iter()
            .map(|q| {
                tilestore_rasql::execute(&single.begin_read(), q)
                    .unwrap_or_else(|e| panic!("iter {iter}: {q}: single: {e}"))
                    .0
            })
            .collect();

        let pool = Arc::new(ThreadPool::new(2));
        for &shards in SHARD_COUNTS {
            let map = random_map(&mut rng, dim, &hull, shards);
            let backends = (0..shards)
                .map(|_| ShardBackend::Local(SharedDatabase::new(Database::in_memory().unwrap())))
                .collect();
            let coord = Coordinator::new(map, backends, Arc::clone(&pool)).unwrap();
            coord
                .create_object("a", mdd.clone(), scheme.clone())
                .unwrap();
            for a in &arrays {
                coord.insert("a", a).unwrap();
            }
            for (q, want) in statements.iter().zip(&wants) {
                let ctx = format!("iter {iter}, {shards} shards: {q}");
                let got = match coord.execute(q).unwrap_or_else(|e| panic!("{ctx}: {e}")) {
                    ClusterStatement::Value(v) => v,
                    ClusterStatement::Explain(_) => panic!("{ctx}: unexpected explain"),
                };
                assert_same(&ctx, want, &got.value);
                assert_eq!(got.epochs.len(), shards, "{ctx}: epochs");
            }
        }
    }
}
