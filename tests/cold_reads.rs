//! Cold reads on a file-backed database: a window read straight after
//! `open_dir` fetches every page from `pages.db` in coalesced runs, checks
//! each frame's CRC-32 on the way in, and returns exactly the cells that
//! were inserted. One flipped payload byte fails the read with the typed
//! checksum error of that page.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};

use tilestore::engine::PAGES_FILE;
use tilestore::storage::{StorageError, FRAME_HEADER};
use tilestore::{
    AlignedTiling, Array, CellType, Database, DefDomain, Domain, EngineError, MddType, Point,
    Scheme,
};

/// Side of the square `u32` object: 1024² cells are 4 MiB in 32 KiB tiles.
const SIDE: i64 = 1024;

fn cell(p: &Point) -> u32 {
    (p[0] * SIDE + p[1]) as u32
}

fn d(s: &str) -> Domain {
    s.parse().unwrap()
}

/// Overwrites the byte at `offset` of `file`, returning the old one.
fn swap_byte(file: &mut File, offset: u64, new: impl FnOnce(u8) -> u8) -> u8 {
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(offset)).unwrap();
    file.read_exact(&mut byte).unwrap();
    file.seek(SeekFrom::Start(offset)).unwrap();
    file.write_all(&[new(byte[0])]).unwrap();
    file.flush().unwrap();
    byte[0]
}

#[test]
fn cold_window_reads_are_exact_and_verify_every_frame() {
    let dir = tilestore_testkit::tempdir().unwrap();
    let path = dir.path().join("db");
    {
        let db = Database::create_dir(&path).unwrap();
        db.create_object(
            "big",
            MddType::new(CellType::of::<u32>(), DefDomain::unlimited(2).unwrap()),
            Scheme::Aligned(AlignedTiling::regular(2, 32 << 10)),
        )
        .unwrap();
        let whole = Domain::from_bounds(&[(0, SIDE - 1), (0, SIDE - 1)]).unwrap();
        db.insert("big", &Array::from_fn(whole, cell).unwrap())
            .unwrap();
        db.save(&path).unwrap();
    }
    let window = d("[100:611,37:700]");
    let expected = Array::from_fn(window.clone(), cell).unwrap();

    // A cold read of a fresh handle: every page a miss, most of them
    // arriving in multi-page runs, every frame checked, the cells exact.
    let db = Database::open_dir(&path).unwrap();
    let got = db.range_query("big", &window).unwrap();
    let io = got.stats.io;
    assert!(
        io.pages_read > 100,
        "window reads only {} pages",
        io.pages_read
    );
    assert_eq!(io.cache_misses, io.pages_read);
    assert!(io.pages_read_run > io.pages_read / 2, "{io:?}");
    assert_eq!(got.array, expected);

    // Flip one payload byte of a tile the window reads. The cold read of
    // another fresh handle fails on that page's checksum.
    let pool = db.blob_store().page_store();
    let object = db.object("big").unwrap();
    let tile = object
        .tiles
        .iter()
        .find(|t| t.domain.contains_point(&Point::from_slice(&[300, 300])))
        .unwrap();
    let first = db
        .blob_store()
        .blob_placement(tile.blob)
        .unwrap()
        .first_page;
    let offset = first.0 * pool.inner_store().frame_size() + FRAME_HEADER as u64 + 100;
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path.join(PAGES_FILE))
        .unwrap();
    let old = swap_byte(&mut file, offset, |b| b ^ 0x10);
    match Database::open_dir(&path)
        .unwrap()
        .range_query("big", &window)
    {
        Err(EngineError::Storage(StorageError::ChecksumMismatch { page })) => {
            assert_eq!(page, first.0);
        }
        other => panic!("corrupt frame not detected: {:?}", other.map(|r| r.stats)),
    }

    // Restored, the same cold read succeeds and is exact.
    swap_byte(&mut file, offset, |_| old);
    let got = Database::open_dir(&path)
        .unwrap()
        .range_query("big", &window)
        .unwrap();
    assert_eq!(got.stats.io.cache_misses, got.stats.io.pages_read);
    assert_eq!(got.array, expected);
}
