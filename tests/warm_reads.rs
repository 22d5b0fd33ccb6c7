//! Warm reads on a file-backed database: once a window's pages are in the
//! buffer pool, reading it again pastes raw tiles straight from the pool's
//! frames and decodes compressed tiles from them. A raw 64×64 `u32` tile is
//! a 16 388-byte stream (a 4-byte codec header, then the cells), so it
//! spans three 8 KiB pages and two of its rows straddle a page boundary.
//! Both kinds read back cell-exact, cold and warm, and the warm pass reads
//! the same pages with no miss.

use tilestore::compress::{stream_codec, stream_header};
use tilestore::storage::DEFAULT_PAGE_SIZE;
use tilestore::{
    AggKind, AggValue, AlignedTiling, Array, CellType, Codec, CompressionPolicy, Database,
    DefDomain, Domain, MddType, Point, Scheme,
};

/// Side of each square `u32` object: 4×4 tiles of 64×64 cells.
const SIDE: i64 = 256;

/// Cells no codec shrinks: stored raw.
fn noise(p: &Point) -> u32 {
    let x = (p[0] * SIDE + p[1]) as u32;
    x.wrapping_mul(0x9E37_79B9).rotate_left(13) ^ x
}

/// A gradient: delta + PackBits shrinks it.
fn smooth(p: &Point) -> u32 {
    (p[0] * SIDE + p[1]) as u32
}

fn d(s: &str) -> Domain {
    s.parse().unwrap()
}

/// An object of the test: its name, its cells and how they are stored.
type Object = (&'static str, fn(&Point) -> u32, CompressionPolicy);

#[test]
fn warm_windows_paste_from_pool_frames_exactly() {
    let dir = tilestore_testkit::tempdir().unwrap();
    let path = dir.path().join("db");
    let objects: [Object; 2] = [
        ("raw", noise, CompressionPolicy::None),
        (
            "smooth",
            smooth,
            CompressionPolicy::Fixed(Codec::DeltaPackBits),
        ),
    ];
    let whole = Domain::from_bounds(&[(0, SIDE - 1), (0, SIDE - 1)]).unwrap();
    {
        let db = Database::create_dir(&path).unwrap();
        for (name, cell, policy) in &objects {
            db.create_object(
                name,
                MddType::new(CellType::of::<u32>(), DefDomain::unlimited(2).unwrap()),
                Scheme::Aligned(AlignedTiling::regular(2, 16 << 10)),
            )
            .unwrap();
            db.set_compression(name, policy.clone()).unwrap();
            db.insert(name, &Array::from_fn(whole.clone(), cell).unwrap())
                .unwrap();
        }
        db.save(&path).unwrap();
    }

    // The layout the test is about: every tile 64×64; raw tiles are
    // 3-page streams behind a 4-byte header, compressed ones one frame.
    let db = Database::open_dir(&path).unwrap();
    for (name, _, _) in &objects {
        for tile in &db.object(name).unwrap().tiles {
            assert_eq!(tile.domain.cells(), 64 * 64, "{name}: {}", tile.domain);
            let stream = db.blob_store().read(tile.blob).unwrap();
            let placement = db.blob_store().blob_placement(tile.blob).unwrap();
            if *name == "raw" {
                assert_eq!(stream_codec(&stream).unwrap(), Codec::None);
                assert_eq!(stream_header(&stream).unwrap().body_offset, 4);
                assert_eq!(stream.len(), 16_388);
                assert_eq!(placement.pages, 3);
            } else {
                assert_eq!(stream_codec(&stream).unwrap(), Codec::DeltaPackBits);
                assert!(stream.len() <= DEFAULT_PAGE_SIZE, "{}", stream.len());
            }
        }
    }
    drop(db);

    // Whole tiles, windows across tile seams, and the rows that straddle a
    // raw tile's page boundaries (tile rows 31/32 and 63/64).
    let windows = [
        d("[0:255,0:255]"),
        d("[10:100,20:200]"),
        d("[31:32,0:255]"),
        d("[95:96,3:250]"),
        d("[63:64,60:130]"),
        d("[100:227,61:66]"),
        d("[200:200,0:255]"),
    ];
    let db = Database::open_dir(&path).unwrap();
    for (name, cell, _) in &objects {
        let mut first_pass = Vec::new();
        for pass in 0..2 {
            for (k, window) in windows.iter().enumerate() {
                let got = db.range_query(name, window).unwrap();
                let expected = Array::from_fn(window.clone(), cell).unwrap();
                assert!(
                    got.array == expected,
                    "{name} pass {pass}: {window} reads back wrong cells"
                );
                let io = got.stats.io;
                if pass == 0 {
                    first_pass.push(io.pages_read);
                } else {
                    assert_eq!(io.cache_misses, 0, "{name}: warm {window} missed");
                    assert_eq!(io.cache_hits, io.pages_read, "{name}: {window}");
                    assert_eq!(io.pages_read, first_pass[k], "{name}: {window}");
                }
            }
        }
        // A condenser gathers each raw tile out of its frames.
        let (sum, stats) = db.aggregate(name, &whole, AggKind::Sum).unwrap();
        let want: f64 = (0..SIDE)
            .flat_map(|r| (0..SIDE).map(move |c| Point::from_slice(&[r, c])))
            .map(|p| f64::from(cell(&p)))
            .sum();
        assert_eq!(stats.io.cache_misses, 0, "{name}: warm sum missed");
        match sum {
            AggValue::Number(v) => assert_eq!(v, want, "{name}: sum"),
            other => panic!("{name}: sum returned {other:?}"),
        }
    }
}
