//! The tentpole guarantee of snapshot reads: a query that overlaps a slow
//! writer completes without blocking behind it and observes the pre-writer
//! epoch.
//!
//! A [`GatedStore`] wraps the in-memory page store and stalls every write
//! (and page allocation) while its gate is closed; reads pass straight
//! through. Closing the gate and launching a retile therefore freezes the
//! writer mid-rewrite — exactly the window in which the old whole-database
//! lock used to make readers queue up.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use tilestore_engine::{Array, CellType, Database, MddType};
use tilestore_storage::{MemPageStore, PageId, PageStore};
use tilestore_tiling::{AlignedTiling, Scheme};

struct GateState {
    closed: bool,
    waiting: usize,
}

/// Page store whose mutating operations block while the gate is closed.
struct GatedStore {
    inner: MemPageStore,
    gate: Mutex<GateState>,
    cv: Condvar,
}

impl GatedStore {
    fn new() -> Self {
        GatedStore {
            inner: MemPageStore::new(tilestore_storage::DEFAULT_PAGE_SIZE).unwrap(),
            gate: Mutex::new(GateState {
                closed: false,
                waiting: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn close(&self) {
        self.gate.lock().unwrap().closed = true;
    }

    fn open(&self) {
        self.gate.lock().unwrap().closed = false;
        self.cv.notify_all();
    }

    /// Blocks the calling writer while the gate is closed.
    fn block_point(&self) {
        let mut g = self.gate.lock().unwrap();
        if !g.closed {
            return;
        }
        g.waiting += 1;
        self.cv.notify_all();
        while g.closed {
            g = self.cv.wait(g).unwrap();
        }
        g.waiting -= 1;
    }

    /// Waits until at least one writer is parked on the closed gate.
    fn wait_for_blocked_writer(&self, timeout: Duration) -> bool {
        let mut g = self.gate.lock().unwrap();
        while g.waiting == 0 {
            let (next, res) = self.cv.wait_timeout(g, timeout).unwrap();
            g = next;
            if res.timed_out() {
                return g.waiting > 0;
            }
        }
        true
    }
}

impl PageStore for GatedStore {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocated(&self) -> u64 {
        self.inner.allocated()
    }

    fn allocate(&self, count: u64) -> tilestore_storage::Result<Vec<PageId>> {
        self.block_point();
        self.inner.allocate(count)
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> tilestore_storage::Result<()> {
        self.inner.read_page(page, buf)
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> tilestore_storage::Result<()> {
        self.block_point();
        self.inner.write_page(page, buf)
    }

    fn sync(&self) -> tilestore_storage::Result<()> {
        self.block_point();
        self.inner.sync()
    }
}

fn grid() -> Array {
    Array::from_fn("[0:31,0:31]".parse().unwrap(), |p| {
        (p[0] * 32 + p[1]) as u32
    })
    .unwrap()
}

#[test]
fn query_during_a_stalled_retile_completes_on_the_old_epoch() {
    let db = Database::with_store(GatedStore::new());
    db.create_object(
        "m",
        MddType::new(CellType::of::<u32>(), "[0:*,0:*]".parse().unwrap()),
        Scheme::Aligned(AlignedTiling::regular(2, 1024)),
    )
    .unwrap();
    db.insert("m", &grid()).unwrap();
    let epoch_before = db.begin_read().epoch();

    // Freeze all writes, then start a retile: it stalls mid-rewrite while
    // holding the writer lock, exactly like a long-running reorganization.
    db.blob_store().page_store().close();
    let retile_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            db.retile("m", Scheme::Aligned(AlignedTiling::regular(2, 4096)))
                .unwrap();
            retile_done.store(true, Ordering::SeqCst);
        });
        assert!(
            db.blob_store()
                .page_store()
                .wait_for_blocked_writer(Duration::from_secs(10)),
            "retile never reached the gate"
        );

        // The reader must finish while the retile is still parked: acquiring
        // the snapshot and executing the query takes no writer-held lock.
        let snap = db.begin_read();
        assert_eq!(snap.epoch(), epoch_before, "reader sees pre-retile epoch");
        let q = snap
            .range_query("m", &"[0:31,0:31]".parse().unwrap())
            .unwrap();
        assert_eq!(q.array, grid());
        assert_eq!(q.epoch, epoch_before);
        assert!(
            !retile_done.load(Ordering::SeqCst),
            "query must complete before the retile finishes"
        );
        drop(snap);

        // Release the writer; its commit bumps the epoch past the reader's.
        db.blob_store().page_store().open();
    });
    assert!(retile_done.load(Ordering::SeqCst));
    let after = db.begin_read();
    assert!(after.epoch() > epoch_before, "retile committed a new epoch");
    assert_eq!(
        after
            .range_query("m", &"[0:31,0:31]".parse().unwrap())
            .unwrap()
            .array,
        grid(),
        "contents are unchanged by the retile"
    );
}

#[test]
fn writers_queue_behind_each_other_but_never_behind_readers() {
    let db = Database::with_store(GatedStore::new());
    db.create_object(
        "m",
        MddType::new(CellType::of::<u32>(), "[0:*,0:*]".parse().unwrap()),
        Scheme::Aligned(AlignedTiling::regular(2, 1024)),
    )
    .unwrap();
    db.insert("m", &grid()).unwrap();

    // Park a retile on the write gate, then hold a long-lived snapshot open
    // across the whole stall. Readers neither wait for the writer nor make
    // the writer wait once the gate opens.
    db.blob_store().page_store().close();
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            db.retile("m", Scheme::Aligned(AlignedTiling::regular(2, 2048)))
                .unwrap()
        });
        assert!(db
            .blob_store()
            .page_store()
            .wait_for_blocked_writer(Duration::from_secs(10)));
        let held = db.begin_read();
        for _ in 0..8 {
            let q = db
                .begin_read()
                .range_query("m", &"[0:7,0:7]".parse().unwrap())
                .unwrap();
            assert_eq!(q.epoch, held.epoch());
        }
        db.blob_store().page_store().open();
        let receipt = writer.join().unwrap();
        assert!(receipt.epoch > held.epoch());
        // The pinned snapshot still reads its own epoch's tiles.
        assert_eq!(
            held.range_query("m", &"[0:31,0:31]".parse().unwrap())
                .unwrap()
                .array,
            grid()
        );
    });
}

/// Regression: `begin_read` registers its epoch with the tracker while it
/// still holds the catalog lock. Registering after releasing it left a gap
/// in which a retile swapped the catalog, found no live snapshot, and
/// deleted the blobs the new reader was about to read, so the read failed
/// with `Storage(UnknownBlob)`. Two readers loop over fresh snapshots while
/// a writer retiles a one- or two-tile object back to back for about a
/// second; the tiny object keeps swaps frequent, and a second reader makes
/// a reader preempted inside `begin_read` likely.
#[test]
fn fresh_snapshots_racing_back_to_back_retiles_read_every_blob() {
    let db = Database::in_memory().unwrap();
    let regular = |bytes| Scheme::Aligned(AlignedTiling::regular(2, bytes));
    db.create_object(
        "m",
        MddType::new(CellType::of::<u32>(), "[0:*,0:*]".parse().unwrap()),
        regular(64),
    )
    .unwrap();
    let cells = Array::from_fn("[0:3,0:3]".parse().unwrap(), |p| (p[0] * 4 + p[1]) as u32);
    db.insert("m", &cells.unwrap()).unwrap();
    let origin = "[0:0,0:0]".parse().unwrap();
    let writing = AtomicBool::new(true);
    std::thread::scope(|s| {
        s.spawn(|| {
            let started = Instant::now();
            let mut retiles = 0u64;
            while retiles < 20_000 && started.elapsed() < Duration::from_secs(1) {
                let bytes = if retiles.is_multiple_of(2) { 32 } else { 64 };
                db.retile("m", regular(bytes)).unwrap();
                retiles += 1;
            }
            writing.store(false, Ordering::SeqCst);
        });
        for _ in 0..2 {
            s.spawn(|| {
                while writing.load(Ordering::SeqCst) {
                    let q = db.begin_read().range_query("m", &origin).unwrap();
                    assert_eq!(q.array.bytes(), &0u32.to_le_bytes());
                }
            });
        }
    });
}
