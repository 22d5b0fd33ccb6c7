//! Concurrency suite for the buffer pool: the stale-frame regression repro
//! and freshness properties across shard counts.
//!
//! The central invariant: **the cache never serves bytes older than the
//! last completed `write_page`**. The pool is write-through, so the store
//! is always current; a cached frame is allowed to lag only while a write
//! is still in flight, never after it returned.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Mutex;

use tilestore_storage::{
    BufferPool, FilePageStore, Frame, MemPageStore, PageId, PageStore, Result, StorageError,
};

/// A pass-through page store that, once armed, pauses exactly one
/// `read_page` *after* the bytes were fetched from the inner store and
/// before they are returned to the caller — the window in which the
/// buffer pool's miss path holds pre-fetch bytes it has not installed yet.
struct PausingStore<S> {
    inner: S,
    armed: AtomicBool,
    fetched: Mutex<Sender<()>>,
    resume: Mutex<Receiver<()>>,
}

impl<S: PageStore> PageStore for PausingStore<S> {
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
        self.inner.read_page(page, buf)?;
        if self.armed.swap(false, Ordering::AcqRel) {
            // Bytes are fetched; hold them hostage until the test says the
            // concurrent write has fully completed.
            self.fetched.lock().unwrap().send(()).unwrap();
            self.resume.lock().unwrap().recv().unwrap();
        }
        Ok(())
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> Result<()> {
        self.inner.write_page(page, buf)
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

/// The PR-8 stale-frame race, deterministically interleaved:
///
/// 1. reader misses on page P and fetches the old bytes from the store;
/// 2. before the reader re-acquires the pool lock, a writer completes
///    `write_page(P, new)` (write-through: the store now holds `new`;
///    there is no frame to refresh, so the cache stays empty);
/// 3. the reader resumes and installs its pre-fetch bytes.
///
/// On the pre-fix pool the install wins and every subsequent read is a
/// cache hit serving the *old* bytes while the store holds the new ones —
/// a permanently stale frame. The fixed pool discards the install because
/// the shard's write version moved between miss start and install.
#[test]
fn stale_frame_race_is_not_cached() {
    let ps = 1024usize;
    let (fetched_tx, fetched_rx) = std::sync::mpsc::channel();
    let (resume_tx, resume_rx) = std::sync::mpsc::channel();
    let store = PausingStore {
        inner: MemPageStore::new(ps).unwrap(),
        armed: AtomicBool::new(false),
        fetched: Mutex::new(fetched_tx),
        resume: Mutex::new(resume_rx),
    };
    let pool = BufferPool::new(store, 8).unwrap();
    let page = pool.allocate(1).unwrap()[0];
    pool.write_page(page, &vec![1u8; ps]).unwrap();
    assert_eq!(pool.cached_frames(), 0, "write-through must not install");

    pool.inner_store().armed.store(true, Ordering::Release);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut buf = vec![0u8; ps];
            pool.read_page(page, &mut buf).unwrap();
            // The read overlapped the write, so either value is a legal
            // return — the invariant under test is about the *cache*.
            assert!(buf == vec![1u8; ps] || buf == vec![2u8; ps]);
        });
        // The reader fetched the old bytes and is paused pre-install.
        fetched_rx.recv().unwrap();
        pool.write_page(page, &vec![2u8; ps]).unwrap();
        resume_tx.send(()).unwrap();
        reader.join().unwrap();
    });

    // After the write completed, every read — cached or not — must see the
    // new bytes. The buggy pool serves the stale install as a hit here.
    let mut buf = vec![0u8; ps];
    pool.read_page(page, &mut buf).unwrap();
    assert_eq!(
        buf,
        vec![2u8; ps],
        "cache serves pre-write bytes after write_page returned"
    );
    let mut direct = vec![0u8; ps];
    pool.inner_store().read_page(page, &mut direct).unwrap();
    assert_eq!(direct, vec![2u8; ps], "store must hold the new bytes");
}

/// Freshness property: one writer per page bumps a monotonic version byte;
/// readers must never observe a version going backwards on any page. Runs
/// across shard counts 1 / 4 / 16 so the single-shard configuration — the
/// pre-PR-8 layout — stays covered by the same invariant.
#[test]
fn page_versions_never_go_backwards_across_shard_counts() {
    for &shards in &[1usize, 4, 16] {
        let ps = 512usize;
        let pool = BufferPool::with_shards(MemPageStore::new(ps).unwrap(), 8, shards).unwrap();
        let pages = pool.allocate(24).unwrap();
        for &pg in &pages {
            pool.write_page(pg, &vec![0u8; ps]).unwrap();
        }
        // floor[i]: highest version whose write_page has *returned* — a
        // sound lower bound for any read that starts afterwards.
        let floor: Vec<AtomicU64> = (0..pages.len()).map(|_| AtomicU64::new(0)).collect();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            // Writer: bumps each page's version byte in round-robin; the
            // page payload is the version repeated, so a torn frame is
            // also detectable. The floor is published only after the write
            // completed.
            s.spawn(|| {
                for v in 1u8..=30 {
                    for (i, &pg) in pages.iter().enumerate() {
                        pool.write_page(pg, &vec![v; ps]).unwrap();
                        floor[i].store(u64::from(v), Ordering::Release);
                    }
                }
                stop.store(true, Ordering::Release);
            });
            for t in 0..3u64 {
                let pool = &pool;
                let pages = &pages;
                let floor = &floor;
                let stop = &stop;
                s.spawn(move || {
                    let mut buf = vec![0u8; ps];
                    let mut last = vec![0u64; pages.len()];
                    let mut x = t.wrapping_mul(0x9E37_79B9) + 1;
                    let mut reads = 0u32;
                    while !stop.load(Ordering::Acquire) || reads < 400 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let i = (x >> 33) as usize % pages.len();
                        // Sampled *before* the read: any version already
                        // fully written must be visible to it.
                        let committed = floor[i].load(Ordering::Acquire);
                        pool.read_page(pages[i], &mut buf).unwrap();
                        let v = u64::from(buf[0]);
                        assert!(
                            buf.iter().all(|&b| u64::from(b) == v),
                            "torn frame on page {} (shards={shards})",
                            pages[i].0
                        );
                        assert!(
                            v >= committed,
                            "page {} stale: saw {v}, write {committed} had completed \
                             (shards={shards})",
                            pages[i].0
                        );
                        // This thread's own reads are ordered, so its view
                        // of each page must be monotonic outright.
                        assert!(
                            v >= last[i],
                            "page {} went backwards: saw {v} after {} (shards={shards})",
                            pages[i].0,
                            last[i]
                        );
                        last[i] = v;
                        reads += 1;
                        if reads > 200_000 {
                            break;
                        }
                    }
                });
            }
        });
        // Every page must settle at the final version.
        let mut buf = vec![0u8; ps];
        for &pg in &pages {
            pool.read_page(pg, &mut buf).unwrap();
            assert_eq!(buf, vec![30u8; ps], "shards={shards}");
        }
    }
}

/// Bytes of `page` at `version`: its id, the version, then a fill byte
/// derived from both, so a frame is recognisably one written version.
fn versioned_page(ps: usize, page: u64, version: u64) -> Vec<u8> {
    let mut bytes = vec![(page * 31 + version * 7) as u8; ps];
    bytes[..8].copy_from_slice(&page.to_le_bytes());
    bytes[8..16].copy_from_slice(&version.to_le_bytes());
    bytes
}

/// The version a frame of `page` holds, failing unless the frame is
/// exactly one written version of that page.
fn frame_version(ps: usize, page: u64, frame: &[u8]) -> u64 {
    let version = u64::from_le_bytes(frame[8..16].try_into().unwrap());
    assert!(
        frame == versioned_page(ps, page, version).as_slice(),
        "frame of page {page} is not one written version"
    );
    version
}

/// Lent frames under concurrent writes and eviction: readers hold the
/// frames of their last few batches while a writer rewrites every page and
/// a miss-heavy scan cycles the whole file through a pool a quarter its
/// size. Every frame is exactly one written version when lent and still
/// that version when the reader lets it go, and no read sees a version
/// older than a write that had returned before the read started.
#[test]
fn lent_frames_stay_whole_under_writes_and_eviction() {
    let ps = 512usize;
    let pool = BufferPool::with_shards(MemPageStore::new(ps).unwrap(), 16, 4).unwrap();
    let pages = pool.allocate(64).unwrap();
    for &pg in &pages {
        pool.write_page(pg, &versioned_page(ps, pg.0, 0)).unwrap();
    }
    let floor: Vec<AtomicU64> = (0..pages.len()).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for v in 1u64..=200 {
                for (i, &pg) in pages.iter().enumerate() {
                    pool.write_page(pg, &versioned_page(ps, pg.0, v)).unwrap();
                    floor[i].store(v, Ordering::Release);
                }
            }
            stop.store(true, Ordering::Release);
        });
        // The scan: every page in order, so nearly every read misses and
        // installs, evicting frames the readers still hold.
        s.spawn(|| {
            let mut frames = Vec::new();
            while !stop.load(Ordering::Acquire) {
                frames.clear();
                pool.read_frames(&pages, &mut frames, pages.len()).unwrap();
                for (pg, frame) in pages.iter().zip(&frames) {
                    frame_version(ps, pg.0, frame);
                }
            }
        });
        for t in 0..3u64 {
            let (pool, pages, floor, stop) = (&pool, &pages, &floor, &stop);
            s.spawn(move || {
                let mut held: std::collections::VecDeque<Vec<(u64, u64, _)>> =
                    std::collections::VecDeque::new();
                let mut x = t.wrapping_mul(0x9E37_79B9) + 1;
                let mut batches = 0u32;
                while !stop.load(Ordering::Acquire) || batches < 200 {
                    // Mostly the first 8 pages, so readers hit frames
                    // the writer keeps replacing; now and then any page.
                    let span = if batches.is_multiple_of(4) {
                        pages.len()
                    } else {
                        8
                    };
                    let batch: Vec<usize> = (0..4)
                        .map(|_| {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                            (x >> 33) as usize % span
                        })
                        .collect();
                    let ids: Vec<_> = batch.iter().map(|&i| pages[i]).collect();
                    // Sampled before the read starts: these writes returned.
                    let committed: Vec<u64> = batch
                        .iter()
                        .map(|&i| floor[i].load(Ordering::Acquire))
                        .collect();
                    let mut frames = Vec::new();
                    pool.read_frames(&ids, &mut frames, ids.len()).unwrap();
                    let mut kept = Vec::new();
                    for ((pg, frame), floor) in ids.iter().zip(frames).zip(committed) {
                        let v = frame_version(ps, pg.0, &frame);
                        assert!(
                            v >= floor,
                            "page {} stale: saw {v}, write {floor} had returned",
                            pg.0
                        );
                        kept.push((pg.0, v, frame));
                    }
                    held.push_back(kept);
                    if held.len() > 8 {
                        for (page, v, frame) in held.pop_front().unwrap() {
                            assert_eq!(frame_version(ps, page, &frame), v, "lent frame changed");
                        }
                    }
                    batches += 1;
                    if batches > 50_000 {
                        break;
                    }
                }
            });
        }
    });
    let mut frames = Vec::new();
    pool.read_frames(&pages, &mut frames, pages.len()).unwrap();
    for (pg, frame) in pages.iter().zip(&frames) {
        assert_eq!(frame_version(ps, pg.0, frame), 200);
    }
}

/// One statement's read of consecutive pages, retried while it overlaps a
/// write of one of them on the file: `pread` may see a frame half
/// rewritten, and the frame's checksum turns that into an error instead of
/// bytes.
fn read_run_views<S: PageStore>(
    pool: &BufferPool<S>,
    ids: &[PageId],
    statement: usize,
) -> Vec<Frame> {
    loop {
        let mut frames = Vec::new();
        match pool.read_frames(ids, &mut frames, statement) {
            Ok(_) => return frames,
            Err(StorageError::ChecksumMismatch { .. }) => continue,
            Err(e) => panic!("run read failed: {e}"),
        }
    }
}

/// Run views under concurrent writes and a cycling scan, over a file
/// store: a miss lends views into the one run buffer its positioned read
/// filled, and the pool installs copies of them. Readers hold the views of
/// their last few multi-page runs while a writer rewrites every page and a
/// scan reads each 8-page window twice, so its second touch installs and
/// the pool keeps cycling. Every view is one written version when lent and
/// the same version when let go, and none is older than a write that had
/// returned before its read started.
#[test]
fn run_views_stay_whole_under_writes_and_a_cycling_scan() {
    let ps = 512usize;
    let dir = tilestore_testkit::tempdir().unwrap();
    let store = FilePageStore::create(dir.path().join("pages.db"), ps).unwrap();
    let pool = BufferPool::with_shards(store, 16, 4).unwrap();
    let pages = pool.allocate(64).unwrap();
    for &pg in &pages {
        pool.write_page(pg, &versioned_page(ps, pg.0, 0)).unwrap();
    }
    let floor: Vec<AtomicU64> = (0..pages.len()).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for v in 1u64..=60 {
                for (i, &pg) in pages.iter().enumerate() {
                    pool.write_page(pg, &versioned_page(ps, pg.0, v)).unwrap();
                    floor[i].store(v, Ordering::Release);
                }
            }
            stop.store(true, Ordering::Release);
        });
        // The scan: 8 of the pool's 16 frames is a scan, so each window's
        // first read leaves ghosts and its second installs over the LRU.
        s.spawn(|| {
            let mut k = 0;
            while !stop.load(Ordering::Acquire) {
                let window = &pages[k % 8 * 8..][..8];
                for _ in 0..2 {
                    for (pg, frame) in window.iter().zip(read_run_views(&pool, window, 8)) {
                        frame_version(ps, pg.0, &frame);
                    }
                }
                k += 1;
            }
        });
        for t in 0..3u64 {
            let (pool, pages, floor, stop) = (&pool, &pages, &floor, &stop);
            s.spawn(move || {
                let mut held: std::collections::VecDeque<Vec<(u64, u64, Frame)>> =
                    std::collections::VecDeque::new();
                let mut x = t.wrapping_mul(0x9E37_79B9) + 1;
                let mut runs = 0u32;
                while !stop.load(Ordering::Acquire) || runs < 200 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let len = 2 + (x >> 40) as usize % 5;
                    let start = (x >> 33) as usize % (pages.len() - len);
                    let ids = &pages[start..start + len];
                    // Sampled before the read starts: these writes returned.
                    let committed: Vec<u64> = (start..start + len)
                        .map(|i| floor[i].load(Ordering::Acquire))
                        .collect();
                    let mut kept = Vec::new();
                    for ((pg, frame), floor) in ids
                        .iter()
                        .zip(read_run_views(pool, ids, len))
                        .zip(committed)
                    {
                        let v = frame_version(ps, pg.0, &frame);
                        assert!(
                            v >= floor,
                            "page {} stale: saw {v}, write {floor} had returned",
                            pg.0
                        );
                        kept.push((pg.0, v, frame));
                    }
                    held.push_back(kept);
                    if held.len() > 8 {
                        for (page, v, frame) in held.pop_front().unwrap() {
                            assert_eq!(frame_version(ps, page, &frame), v, "run view changed");
                        }
                    }
                    runs += 1;
                    if runs > 20_000 {
                        break;
                    }
                }
            });
        }
    });
    for (pg, frame) in pages.iter().zip(read_run_views(&pool, &pages, pages.len())) {
        assert_eq!(frame_version(ps, pg.0, &frame), 60);
    }
}
