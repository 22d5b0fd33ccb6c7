//! A query's I/O counts belong to that query: `stats.io` adds up what the
//! query's own reads returned, so a query overlapped by another reports
//! exactly what it reports when it runs alone.

use std::sync::{Condvar, Mutex};

use tilestore::storage::{MemPageStore, PageId, PageStore, Result};
use tilestore::{AlignedTiling, Array, CellType, Database, DefDomain, Domain, MddType, Scheme};

/// Where the one parked reader of a [`ParkingStore`] is.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Park {
    Off,
    Armed,
    Parked,
    Released,
}

/// A page store that, once armed, parks the next page read until the
/// test releases it.
struct ParkingStore {
    inner: MemPageStore,
    park: Mutex<Park>,
    cv: Condvar,
}

impl ParkingStore {
    fn set(&self, state: Park) {
        *self.park.lock().unwrap() = state;
        self.cv.notify_all();
    }

    fn wait_for(&self, state: Park) {
        let mut park = self.park.lock().unwrap();
        while *park != state {
            park = self.cv.wait(park).unwrap();
        }
    }
}

impl PageStore for ParkingStore {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocated(&self) -> u64 {
        self.inner.allocated()
    }

    fn allocate(&self, count: u64) -> Result<Vec<PageId>> {
        self.inner.allocate(count)
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        let mut park = self.park.lock().unwrap();
        if *park == Park::Armed {
            *park = Park::Parked;
            self.cv.notify_all();
            while *park != Park::Released {
                park = self.cv.wait(park).unwrap();
            }
        }
        drop(park);
        self.inner.read_page(page, buf)
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> Result<()> {
        self.inner.write_page(page, buf)
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

fn d(s: &str) -> Domain {
    s.parse().unwrap()
}

#[test]
fn a_query_overlapped_by_a_larger_one_reports_only_its_own_io() {
    // 4 KiB tiles on 8 KiB pages: each of the 16 tiles is a one-page blob.
    let db = Database::with_store(ParkingStore {
        inner: MemPageStore::new(8192).unwrap(),
        park: Mutex::new(Park::Off),
        cv: Condvar::new(),
    });
    db.create_object(
        "img",
        MddType::new(CellType::of::<u8>(), DefDomain::unlimited(2).unwrap()),
        Scheme::Aligned(AlignedTiling::regular(2, 4096)),
    )
    .unwrap();
    let all = d("[0:255,0:255]");
    db.insert(
        "img",
        &Array::from_fn(all.clone(), |p| (p[0] ^ p[1]) as u8).unwrap(),
    )
    .unwrap();
    let one_tile = d("[0:9,0:9]");
    let solo = db.range_query("img", &one_tile).unwrap().stats.io;
    assert_eq!((solo.pages_read, solo.blobs_read), (1, 1), "{solo:?}");

    // Query A parks in its first page read; query B reads all 16 tiles and
    // finishes while A is parked; then A resumes.
    let store = db.blob_store().page_store();
    store.set(Park::Armed);
    std::thread::scope(|s| {
        let a = s.spawn(|| db.range_query("img", &one_tile).unwrap().stats.io);
        store.wait_for(Park::Parked);
        let b = db.range_query("img", &all).unwrap().stats.io;
        assert_eq!(b.pages_read, 16, "{b:?}");
        store.set(Park::Released);
        assert_eq!(a.join().unwrap(), solo, "A counted B's reads");
    });
}
