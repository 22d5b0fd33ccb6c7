//! Workload specifications and the seeded generator behind them.
//!
//! Every cell is a closed-form function of `(row, col, seed)`, so any
//! result can be checked without keeping a second copy of the data. The
//! op list comes from `--seed` too; the program only ever sees statements
//! and arrays.

use tilestore_engine::Array;
use tilestore_geometry::Domain;

/// How a workload's ops reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `rasql::execute` on a snapshot of an in-process handle.
    Engine,
    /// `Client::query` over loopback to `serve`.
    Served,
    /// `Client::query` over loopback to `serve_cluster` over two shards.
    Cluster,
    /// `insert` of one slab + `save`, into a fresh directory per round.
    Ingest,
}

/// One named workload: a dataset shape and an op shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`: the driver runs it and holds its
    /// end-to-end metrics to the bounds there. An ungated workload runs and
    /// reports the same way; nothing is rejected on its numbers.
    pub gated: bool,
    pub route: Route,
    pub object: &'static str,
    pub rows: i64,
    pub cols: i64,
    /// `MaxTileSize` of the regular tiling, in bytes.
    pub tile_bytes: u64,
    /// Rows `r` with `r % period < period / 2` are piecewise constant
    /// (compressible); all others are hash noise. 0 = all noise.
    pub comp_period: i64,
    /// Whether the object uses `CompressionPolicy::selective_default()`.
    pub compress: bool,
    /// The dataset is inserted as `rows / slab_rows` full-width slabs.
    pub slab_rows: i64,
    /// Read window `(rows, cols)`.
    pub win: (i64, i64),
    pub ops_per_round: usize,
    /// Timed rounds after each set-up pass. Fixed per workload, never
    /// taken from a clock, so that counts repeat exactly; sized so that the
    /// timed rounds of a full run take about `run_seconds` of
    /// `BENCHMARK.json` on the sandbox.
    pub rounds_per_pass: usize,
}

/// Bytes per cell: every workload stores `u32`.
pub const CELL: usize = 4;

const HOT: Spec = Spec {
    name: "engine_hot_window",
    why: "working set fits the pool, no page I/O after warm-up: rasql, index, decompress and assembly do the work; the control for every I/O change",
    gated: true,
    route: Route::Engine,
    object: "hot",
    rows: 1024,
    cols: 1024,
    tile_bytes: 16 << 10,
    comp_period: 1024,
    compress: true,
    slab_rows: 64,
    win: (128, 128),
    ops_per_round: 4000,
    rounds_per_pass: 8,
};

/// The five workloads. Names are permanent: later issues cite them.
pub const WORKLOADS: [Spec; 5] = [
    HOT,
    Spec {
        name: "engine_cold_scan",
        why: "64 MiB object, 8x the pool: every op misses, so pool miss path, run coalescing, frame CRC and positioned reads dominate",
        gated: true,
        route: Route::Engine,
        object: "big",
        rows: 4096,
        cols: 4096,
        tile_bytes: 32 << 10,
        comp_period: 0,
        compress: false,
        slab_rows: 256,
        win: (1024, 1024),
        ops_per_round: 200,
        rounds_per_pass: 2,
    },
    Spec {
        name: "served_window",
        why: "the engine_hot_window data and ops through Client::query over loopback, client and server on one CPU: frame, JSON, hex and context switches dominate the same engine work",
        route: Route::Served,
        ops_per_round: 1000,
        rounds_per_pass: 8,
        ..HOT
    },
    Spec {
        name: "cluster_window",
        why: "same data and ops through serve_cluster over a 2-shard coordinator, all on one CPU; ~14% of windows straddle the seam: guards the second accept loop and scatter/gather",
        route: Route::Cluster,
        ops_per_round: 1000,
        rounds_per_pass: 8,
        ..HOT
    },
    Spec {
        name: "ingest_commit",
        why: "insert of a 256 KiB slab + durable save into a fresh directory: partitioning, codec choice, CoW pages, full-catalog rewrite and fsyncs; ungated, its timings follow the shared virtual disk",
        gated: false,
        route: Route::Ingest,
        object: "ing",
        rows: 16384,
        cols: 1024,
        tile_bytes: 32 << 10,
        comp_period: 64,
        compress: true,
        slab_rows: 64,
        win: (64, 1024),
        ops_per_round: 256,
        rounds_per_pass: 1,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn slabs(&self) -> usize {
        (self.rows / self.slab_rows) as usize
    }

    /// Logical bytes of user cells in the whole dataset.
    pub fn logical_bytes(&self) -> u64 {
        (self.rows * self.cols) as u64 * CELL as u64
    }

    /// Bytes in one read result.
    pub fn window_bytes(&self) -> u64 {
        (self.win.0 * self.win.1) as u64 * CELL as u64
    }

    /// This workload at a tenth of its ops per round and one timed round
    /// (`--quick`). An ingest round writes one slab per op, so its object
    /// shrinks with it.
    pub fn quick(&self) -> Spec {
        let ops = (self.ops_per_round / 10).max(8);
        let rows = match self.route {
            Route::Ingest => ops as i64 * self.slab_rows,
            _ => self.rows,
        };
        Spec {
            ops_per_round: ops,
            rounds_per_pass: 1,
            rows,
            ..self.clone()
        }
    }
}

/// SplitMix64 finaliser: a fast, well-mixed hash of one word.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The value of cell `(r, c)` of `spec`'s dataset under `seed`.
#[inline]
pub fn cell(spec: &Spec, seed: u64, r: i64, c: i64) -> u32 {
    let (r, c) = (r as u64, c as u64);
    let p = spec.comp_period as u64;
    let key = if p > 0 && r % p < p / 2 {
        // Piecewise constant: one value per block of 8 rows x 64 columns.
        (1 << 63) | (r >> 3) << 32 | c >> 6
    } else {
        r << 32 | c
    };
    mix(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as u32
}

/// Appends the row-major little-endian cells of the `h x w` box at
/// `(r0, c0)` to `out`.
pub fn fill(spec: &Spec, seed: u64, (r0, c0): (i64, i64), (h, w): (i64, i64), out: &mut Vec<u8>) {
    out.reserve((h * w) as usize * CELL);
    for r in r0..r0 + h {
        for c in c0..c0 + w {
            out.extend_from_slice(&cell(spec, seed, r, c).to_le_bytes());
        }
    }
}

fn box_domain((r0, c0): (i64, i64), (h, w): (i64, i64)) -> Domain {
    Domain::from_bounds(&[(r0, r0 + h - 1), (c0, c0 + w - 1)]).expect("non-empty box")
}

/// The domain of slab `i`: `slab_rows` full-width rows.
pub fn slab_region(spec: &Spec, i: usize) -> Domain {
    box_domain((i as i64 * spec.slab_rows, 0), (spec.slab_rows, spec.cols))
}

/// Slab `i` of the dataset.
pub fn slab(spec: &Spec, seed: u64, i: usize) -> Array {
    let region = slab_region(spec, i);
    let mut bytes = Vec::new();
    fill(
        spec,
        seed,
        (region.lo(0), 0),
        (spec.slab_rows, spec.cols),
        &mut bytes,
    );
    Array::from_bytes(region, CELL, bytes).expect("slab bytes match its domain")
}

/// One read op: a window and the statement that asks for it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadOp {
    pub origin: (i64, i64),
    pub region: Domain,
    pub stmt: String,
}

impl ReadOp {
    pub fn new(spec: &Spec, origin: (i64, i64)) -> Self {
        let region = box_domain(origin, spec.win);
        let stmt = format!("SELECT {obj}{region} FROM {obj}", obj = spec.object);
        ReadOp {
            origin,
            region,
            stmt,
        }
    }
}

/// The first `n` read ops of `spec` under `seed`. Workloads that share a
/// dataset shape and window share a prefix of one list.
///
/// Origins follow the R2 low-discrepancy sequence (Roberts' generalised
/// golden ratio) from a seeded starting point: unaligned and uniform over
/// the legal range like independent draws, but covering tile offsets and
/// the compressible and the raw half of the object evenly under every
/// seed. The driver gives every run another seed, and `io_amp`, a pure
/// count, must not move with it: over ten seeds independent draws spread it
/// by 4-6 % on the window workloads, the sequence by 0.5-0.9 % (`NOISE.md`).
pub fn read_ops(spec: &Spec, seed: u64, n: usize) -> Vec<ReadOp> {
    // 2^64 / p and 2^64 / p^2 for the plastic number p = 1.32471...
    const STEP: (u64, u64) = (0xC13F_A9A9_02A6_328F, 0x91E1_0DA5_C79E_7B1C);
    let start = (
        mix(seed ^ 0x6f70_735f_726f_7773),
        mix(seed ^ 0x6f70_735f_636f_6c73),
    );
    let (span_r, span_c) = (spec.rows - spec.win.0 + 1, spec.cols - spec.win.1 + 1);
    // Maps a 64-bit fraction onto `0..span`.
    let scale = |x: u64, span: i64| ((u128::from(x) * span as u128) >> 64) as i64;
    (0..n as u64)
        .map(|i| {
            let r = start.0.wrapping_add(STEP.0.wrapping_mul(i));
            let c = start.1.wrapping_add(STEP.1.wrapping_mul(i));
            ReadOp::new(spec, (scale(r, span_r), scale(c, span_c)))
        })
        .collect()
}

/// How thoroughly a result is compared with the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Every cell (warm-up round, durability checks).
    Full,
    /// Shape plus first and last cell (timed rounds).
    Edges,
}

/// Whether `bytes` over `region` is what the generator says it must be.
pub fn verify(spec: &Spec, seed: u64, region: &Domain, bytes: &[u8], check: Check) -> bool {
    let origin = (region.lo(0), region.lo(1));
    let shape = (region.extent(0) as i64, region.extent(1) as i64);
    if bytes.len() != (shape.0 * shape.1) as usize * CELL {
        return false;
    }
    match check {
        Check::Full => {
            let mut expect = Vec::new();
            fill(spec, seed, origin, shape, &mut expect);
            expect == bytes
        }
        Check::Edges => {
            let first = cell(spec, seed, origin.0, origin.1).to_le_bytes();
            let last = cell(spec, seed, region.hi(0), region.hi(1)).to_le_bytes();
            bytes[..CELL] == first && bytes[bytes.len() - CELL..] == last
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_and_cells() {
        for spec in &WORKLOADS {
            assert_eq!(
                read_ops(spec, 7, 250),
                read_ops(spec, 7, 250),
                "{}",
                spec.name
            );
            assert_eq!(slab(spec, 7, 1), slab(spec, 7, 1), "{}", spec.name);
        }
    }

    #[test]
    fn different_seed_different_ops_and_cells() {
        for spec in &WORKLOADS {
            assert_ne!(slab(spec, 7, 1), slab(spec, 8, 1), "{}", spec.name);
            if spec.route != Route::Ingest {
                assert_ne!(
                    read_ops(spec, 7, 250),
                    read_ops(spec, 8, 250),
                    "{}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn window_workloads_share_one_op_list() {
        let hot = read_ops(Spec::by_name("engine_hot_window").unwrap(), 3, 400);
        for name in ["served_window", "cluster_window"] {
            let ops = read_ops(Spec::by_name(name).unwrap(), 3, 300);
            assert!(
                ops.iter().zip(&hot).all(|(a, b)| a.origin == b.origin),
                "{name}"
            );
        }
    }

    #[test]
    fn ops_stay_inside_the_object_and_cover_it_evenly_under_every_seed() {
        for spec in WORKLOADS.iter().filter(|w| w.route != Route::Ingest) {
            let (max_r, max_c) = (spec.rows - spec.win.0, spec.cols - spec.win.1);
            for seed in [11, 12] {
                let ops = read_ops(spec, seed, 200);
                for op in &ops {
                    assert!((0..=max_r).contains(&op.origin.0), "{}", spec.name);
                    assert!((0..=max_c).contains(&op.origin.1), "{}", spec.name);
                }
                // A quarter of the row origins in each quarter of the range.
                for q in 0..4 {
                    let (lo, hi) = (q * (max_r + 1) / 4, (q + 1) * (max_r + 1) / 4);
                    let inside = ops.iter().filter(|op| (lo..hi).contains(&op.origin.0));
                    assert!((45..=55).contains(&inside.count()), "{} q{q}", spec.name);
                }
            }
        }
    }

    #[test]
    fn verify_accepts_the_generator_and_rejects_a_flipped_cell() {
        let spec = Spec::by_name("ingest_commit").unwrap();
        let a = slab(spec, 5, 3);
        assert!(verify(spec, 5, a.domain(), a.bytes(), Check::Full));
        assert!(verify(spec, 5, a.domain(), a.bytes(), Check::Edges));
        let mut bad = a.bytes().to_vec();
        let mid = bad.len() / 2;
        bad[mid] ^= 1;
        assert!(!verify(spec, 5, a.domain(), &bad, Check::Full));
        assert!(!verify(spec, 6, a.domain(), a.bytes(), Check::Full));
        assert!(!verify(spec, 5, a.domain(), &bad[4..], Check::Edges));
    }

    #[test]
    fn half_of_the_hot_rows_are_piecewise_constant() {
        let spec = Spec::by_name("engine_hot_window").unwrap();
        assert_eq!(cell(spec, 1, 8, 64), cell(spec, 1, 15, 127));
        assert_ne!(cell(spec, 1, 8, 64), cell(spec, 1, 16, 64));
        assert_ne!(cell(spec, 1, 600, 64), cell(spec, 1, 600, 65));
    }
}
