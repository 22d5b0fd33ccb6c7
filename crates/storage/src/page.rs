//! Page abstraction and backends.
//!
//! The storage system reads and writes fixed-size pages — "accesses by the
//! storage system are to whole pages" (§2). Two backends are provided: a
//! file-backed store (the normal case) and an in-memory store (tests and
//! benchmarks that must exclude OS I/O noise).
//!
//! # Durability
//!
//! [`FilePageStore`] frames every page with a 16-byte header (magic, page
//! id, CRC-32 of the payload) so a write torn by a crash or a misdirected
//! write is detected on the next read instead of silently serving garbage.
//! [`PageStore::sync`] flushes a backend to stable storage; the engine
//! calls it at commit points before publishing a new catalog.

use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::path::Path;

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tilestore_testkit::{crc32, FromJson, Json, JsonError, ToJson};

use crate::error::{Result, StorageError};
use crate::stats::IoSnapshot;

/// Locks a mutex, recovering from poisoning: storage must stay usable after
/// a worker thread panicked while holding a lock (one bad request must not
/// take the whole store down).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Default page size: 8 KiB, typical of late-90s database systems.
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// Minimum accepted page size.
pub const MIN_PAGE_SIZE: usize = 512;

/// Bytes of the on-disk frame header a [`FilePageStore`] prepends to every
/// page: 4-byte magic, 8-byte page id, 4-byte CRC-32 of the payload.
pub const FRAME_HEADER: usize = 16;

/// Magic bytes opening every written page frame.
const FRAME_MAGIC: [u8; 4] = *b"TSPG";

/// Identifier of a page within a page store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl ToJson for PageId {
    fn to_json(&self) -> Json {
        Json::UInt(self.0)
    }
}

impl FromJson for PageId {
    fn from_json(v: &Json) -> std::result::Result<Self, JsonError> {
        Ok(PageId(u64::from_json(v)?))
    }
}

/// One page's bytes, shared: a view of one page inside a shared buffer. A
/// caching store lends the frame it holds instead of copying it, a file
/// store lends views into the one run buffer a positioned read filled, and
/// a reader keeps the bytes alive for as long as it holds the frame,
/// whatever the store evicts or rewrites meanwhile. Cloning a frame clones
/// the `Arc`, never the bytes.
#[derive(Clone)]
pub struct Frame {
    buf: Arc<[u8]>,
    offset: usize,
    len: usize,
}

impl Frame {
    /// The `len` bytes of `buf` from `offset`, shared with every other view
    /// of `buf`.
    pub(crate) fn view(buf: &Arc<[u8]>, offset: usize, len: usize) -> Self {
        assert!(offset + len <= buf.len(), "frame view out of its buffer");
        Frame {
            buf: Arc::clone(buf),
            offset,
            len,
        }
    }

    /// Whether the frame is the whole of its buffer, so holding it keeps
    /// exactly its own page alive and nothing of its neighbours.
    #[must_use]
    pub(crate) fn owns_buffer(&self) -> bool {
        self.offset == 0 && self.len == self.buf.len()
    }

    /// A frame that owns its buffer: this one when it already does,
    /// otherwise a copy of its bytes. A cache keeps only such frames, so a
    /// cached page never pins the rest of the run buffer it arrived in.
    #[must_use]
    pub(crate) fn owned(&self) -> Frame {
        if self.owns_buffer() {
            self.clone()
        } else {
            Frame::from(&self[..])
        }
    }

    /// Whether two frames are views of the same bytes of the same buffer.
    #[must_use]
    pub fn ptr_eq(a: &Frame, b: &Frame) -> bool {
        Arc::ptr_eq(&a.buf, &b.buf) && a.offset == b.offset && a.len == b.len
    }
}

impl std::ops::Deref for Frame {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf[self.offset..self.offset + self.len]
    }
}

impl AsRef<[u8]> for Frame {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frame")
            .field("len", &self.len)
            .field("offset", &self.offset)
            .field("buffer_len", &self.buf.len())
            .finish()
    }
}

impl From<&[u8]> for Frame {
    fn from(bytes: &[u8]) -> Self {
        let buf: Arc<[u8]> = Arc::from(bytes);
        Frame::view(&buf, 0, buf.len())
    }
}

/// A zero-filled buffer of `len` bytes, allocated once and shared from the
/// start: the caller fills it through `Arc::get_mut` while it is still
/// unique, then lends views of it.
fn zeroed_shared(len: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0u8, len).collect()
}

/// A store of fixed-size pages.
///
/// Implementations must be internally synchronized: `&self` methods may be
/// called from multiple threads.
pub trait PageStore: Send + Sync {
    /// The page size in bytes.
    fn page_size(&self) -> usize;

    /// Number of pages currently allocated.
    fn allocated(&self) -> u64;

    /// Allocates `count` fresh pages, returning their ids (contiguous).
    ///
    /// # Errors
    /// Propagates backend I/O errors.
    fn allocate(&self, count: u64) -> Result<Vec<PageId>>;

    /// Reads one page into `buf` (must be exactly `page_size` long).
    ///
    /// # Errors
    /// [`StorageError::PageOutOfRange`], [`StorageError::ChecksumMismatch`]
    /// for a torn/corrupt frame, or backend I/O errors.
    fn read_page(&self, page: PageId, buf: &mut [u8]) -> Result<()>;

    /// Whether consecutively numbered pages are physically adjacent in this
    /// backend and [`PageStore::read_page_run`] fetches such a run with one
    /// physical read. Batch readers only claim `runs_coalesced` credit over
    /// backends that return `true`; the default is `false`.
    fn run_read_supported(&self) -> bool {
        false
    }

    /// Reads `count` consecutively numbered pages starting at `first` into
    /// `buf` (exactly `count * page_size` long). Backends whose page ids map
    /// to adjacent physical locations override this with a single positioned
    /// read; the default falls back to one [`PageStore::read_page`] per page.
    ///
    /// # Errors
    /// As [`PageStore::read_page`]; on error the buffer contents are
    /// unspecified.
    fn read_page_run(&self, first: PageId, count: usize, buf: &mut [u8]) -> Result<()> {
        let ps = self.page_size();
        assert_eq!(buf.len(), count * ps, "buffer/run length mismatch");
        for i in 0..count {
            let page = PageId(first.0 + i as u64);
            self.read_page(page, &mut buf[i * ps..(i + 1) * ps])?;
        }
        Ok(())
    }

    /// Reads `pages.len()` pages into `buf`, which must be exactly
    /// `pages.len() * page_size` long; page `i` lands at offset
    /// `i * page_size`. The default groups maximal runs of consecutively
    /// numbered pages and fetches each with one [`PageStore::read_page_run`]
    /// call when the backend supports it; caching stores override the whole
    /// method to batch their locking (the buffer pool serves all hits in a
    /// shard under one lock acquisition). Returns the counts of this one
    /// call — pages read, pool hits and misses, coalesced runs, the pages
    /// and bytes those runs carried — so a caller's accounting holds its
    /// own reads and nothing a concurrent caller did.
    ///
    /// # Errors
    /// As [`PageStore::read_page`]; on error the buffer contents are
    /// unspecified.
    fn read_pages(&self, pages: &[PageId], buf: &mut [u8]) -> Result<IoSnapshot> {
        let ps = self.page_size();
        assert_eq!(buf.len(), pages.len() * ps, "buffer/pages length mismatch");
        read_runs(pages, self.run_read_supported(), ps, |run| {
            let dst = &mut buf[run.start * ps..run.end * ps];
            if run.len() > 1 {
                self.read_page_run(pages[run.start], run.len(), dst)
            } else {
                self.read_page(pages[run.start], dst)
            }
        })
    }

    /// Reads `pages` like [`PageStore::read_pages`], appending one frame
    /// per page to `frames`, in order. `statement_pages` is the number of
    /// pages the whole statement this read belongs to fetches (a read that
    /// is not part of a larger one passes `pages.len()`); the buffer pool
    /// decides from it whether a miss is worth caching, and other stores
    /// ignore it. The default reads into one shared staging buffer and
    /// lends a view of it per page; the file store lends views of each
    /// verified run buffer, and the buffer pool lends its cached frames.
    /// Nothing is copied.
    ///
    /// # Errors
    /// As [`PageStore::read_pages`]; on error `frames` holds an unspecified
    /// number of appended frames.
    fn read_frames(
        &self,
        pages: &[PageId],
        frames: &mut Vec<Frame>,
        statement_pages: usize,
    ) -> Result<IoSnapshot> {
        let _ = statement_pages;
        let ps = self.page_size();
        let mut staging = zeroed_shared(pages.len() * ps);
        let io = self.read_pages(
            pages,
            Arc::get_mut(&mut staging).expect("a fresh staging buffer is unshared"),
        )?;
        frames.extend((0..pages.len()).map(|i| Frame::view(&staging, i * ps, ps)));
        Ok(io)
    }

    /// Writes one page from `buf` (must be exactly `page_size` long).
    ///
    /// # Errors
    /// [`StorageError::PageOutOfRange`] or backend I/O errors.
    fn write_page(&self, page: PageId, buf: &[u8]) -> Result<()>;

    /// Flushes every completed write to stable storage. The engine calls
    /// this at commit points, before publishing a catalog that references
    /// the written pages.
    ///
    /// # Errors
    /// Backend I/O errors.
    fn sync(&self) -> Result<()>;
}

/// Cuts `pages` into maximal runs of consecutively numbered pages (single
/// pages unless `coalesce`), hands each run's index range to `read`, and
/// returns the counts: every page read, and each run of more than one page
/// as one coalesced read.
fn read_runs(
    pages: &[PageId],
    coalesce: bool,
    page_size: usize,
    mut read: impl FnMut(Range<usize>) -> Result<()>,
) -> Result<IoSnapshot> {
    let mut io = IoSnapshot {
        pages_read: pages.len() as u64,
        ..IoSnapshot::default()
    };
    let mut i = 0;
    while i < pages.len() {
        let mut j = i + 1;
        while coalesce && j < pages.len() && pages[j].0 == pages[j - 1].0 + 1 {
            j += 1;
        }
        read(i..j)?;
        if j - i > 1 {
            io.count_run(j - i, page_size);
        }
        i = j;
    }
    io.publish_runs();
    Ok(io)
}

/// Backends that can simulate a write torn by a crash: only a prefix of the
/// physical frame reaches the medium. Drives the fault-injection harness;
/// never used by production code paths.
pub trait TornWritable {
    /// Writes only the first `frame_bytes` bytes of the physical frame that
    /// a full [`PageStore::write_page`] of `buf` would produce, leaving the
    /// rest of the frame as it was.
    ///
    /// # Errors
    /// [`StorageError::PageOutOfRange`] or backend I/O errors.
    fn partial_write_page(&self, page: PageId, buf: &[u8], frame_bytes: usize) -> Result<()>;
}

fn check_page_size(size: usize) -> Result<()> {
    if size < MIN_PAGE_SIZE {
        return Err(StorageError::BadPageSize { size });
    }
    Ok(())
}

/// In-memory page store.
#[derive(Debug)]
pub struct MemPageStore {
    page_size: usize,
    pages: Mutex<Vec<Box<[u8]>>>,
}

impl MemPageStore {
    /// Creates an empty in-memory store with the given page size.
    ///
    /// # Errors
    /// [`StorageError::BadPageSize`] for undersized pages.
    pub fn new(page_size: usize) -> Result<Self> {
        check_page_size(page_size)?;
        Ok(MemPageStore {
            page_size,
            pages: Mutex::new(Vec::new()),
        })
    }
}

impl PageStore for MemPageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocated(&self) -> u64 {
        lock(&self.pages).len() as u64
    }

    fn allocate(&self, count: u64) -> Result<Vec<PageId>> {
        let mut pages = lock(&self.pages);
        let first = pages.len() as u64;
        for _ in 0..count {
            pages.push(vec![0u8; self.page_size].into_boxed_slice());
        }
        Ok((first..first + count).map(PageId).collect())
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        assert_eq!(buf.len(), self.page_size, "buffer must be one page");
        let pages = lock(&self.pages);
        let data = pages
            .get(page.0 as usize)
            .ok_or(StorageError::PageOutOfRange {
                page: page.0,
                allocated: pages.len() as u64,
            })?;
        buf.copy_from_slice(data);
        Ok(())
    }

    fn run_read_supported(&self) -> bool {
        true
    }

    /// Consecutive ids are adjacent vector slots: one lock acquisition
    /// serves the whole run.
    fn read_page_run(&self, first: PageId, count: usize, buf: &mut [u8]) -> Result<()> {
        assert_eq!(buf.len(), count * self.page_size, "buffer/run mismatch");
        let pages = lock(&self.pages);
        for i in 0..count {
            let id = first.0 + i as u64;
            let data = pages.get(id as usize).ok_or(StorageError::PageOutOfRange {
                page: id,
                allocated: pages.len() as u64,
            })?;
            buf[i * self.page_size..(i + 1) * self.page_size].copy_from_slice(data);
        }
        Ok(())
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> Result<()> {
        assert_eq!(buf.len(), self.page_size, "buffer must be one page");
        let mut pages = lock(&self.pages);
        let allocated = pages.len() as u64;
        let data = pages
            .get_mut(page.0 as usize)
            .ok_or(StorageError::PageOutOfRange {
                page: page.0,
                allocated,
            })?;
        data.copy_from_slice(buf);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

impl TornWritable for MemPageStore {
    /// Memory pages carry no frame header, so a torn write lands the first
    /// `frame_bytes` payload bytes and keeps the old tail.
    fn partial_write_page(&self, page: PageId, buf: &[u8], frame_bytes: usize) -> Result<()> {
        assert_eq!(buf.len(), self.page_size, "buffer must be one page");
        let mut pages = lock(&self.pages);
        let allocated = pages.len() as u64;
        let data = pages
            .get_mut(page.0 as usize)
            .ok_or(StorageError::PageOutOfRange {
                page: page.0,
                allocated,
            })?;
        let n = frame_bytes.min(self.page_size);
        data[..n].copy_from_slice(&buf[..n]);
        Ok(())
    }
}

/// File-backed page store with checksummed frames.
///
/// Each page lives at `page_id × (page_size + FRAME_HEADER)` in a single
/// file, prefixed by a header holding a magic, the page id and a CRC-32 of
/// the payload. Reads verify the header: an all-zero frame is a
/// never-written page (reads back as zeroes), anything else must carry a
/// matching id and checksum or the read fails instead of returning torn
/// data.
///
/// # Concurrency
///
/// Reads and writes use positioned I/O (`pread`/`pwrite` on Unix) on a
/// shared file handle, so concurrent page accesses from the executor's
/// worker threads proceed without serializing on a lock; only the
/// allocation counter is mutex-protected. Frame staging buffers are
/// per-thread.
#[derive(Debug)]
pub struct FilePageStore {
    page_size: usize,
    file: File,
    allocated: Mutex<u64>,
    /// Serializes the seek+read/write pairs on targets without positioned
    /// I/O; unused on Unix.
    #[cfg(not(unix))]
    io_lock: Mutex<()>,
}

thread_local! {
    /// Per-thread frame staging buffer (header + payload), sized on use.
    static FRAME_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

impl FilePageStore {
    /// Creates (or truncates) a page file at `path`.
    ///
    /// # Errors
    /// [`StorageError::BadPageSize`] or file-creation I/O errors.
    pub fn create<P: AsRef<Path>>(path: P, page_size: usize) -> Result<Self> {
        check_page_size(page_size)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FilePageStore {
            page_size,
            file,
            allocated: Mutex::new(0),
            #[cfg(not(unix))]
            io_lock: Mutex::new(()),
        })
    }

    /// Opens an existing page file; the allocated page count is derived
    /// from the file length.
    ///
    /// # Errors
    /// [`StorageError::BadPageSize`] or file-open I/O errors.
    pub fn open<P: AsRef<Path>>(path: P, page_size: usize) -> Result<Self> {
        check_page_size(page_size)?;
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(FilePageStore {
            page_size,
            file,
            allocated: Mutex::new(len / Self::frame_size_of(page_size)),
            #[cfg(not(unix))]
            io_lock: Mutex::new(()),
        })
    }

    fn frame_size_of(page_size: usize) -> u64 {
        (FRAME_HEADER + page_size) as u64
    }

    /// Bytes one page occupies on disk (header + payload).
    #[must_use]
    pub fn frame_size(&self) -> u64 {
        Self::frame_size_of(self.page_size)
    }

    /// Fails unless `page` is inside the allocated range.
    fn check_in_range(&self, page: PageId) -> Result<()> {
        let allocated = *lock(&self.allocated);
        if page.0 >= allocated {
            return Err(StorageError::PageOutOfRange {
                page: page.0,
                allocated,
            });
        }
        Ok(())
    }

    #[cfg(unix)]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, offset)
    }

    #[cfg(unix)]
    fn write_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(buf, offset)
    }

    #[cfg(not(unix))]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let _io = lock(&self.io_lock);
        let mut f = &self.file;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }

    #[cfg(not(unix))]
    fn write_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        let _io = lock(&self.io_lock);
        let mut f = &self.file;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(buf)
    }

    /// Runs `f` with this thread's staging buffer resized to one frame.
    fn with_frame_buf<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let frame_len = FRAME_HEADER + self.page_size;
        FRAME_BUF.with(|b| {
            let mut buf = b.borrow_mut();
            buf.resize(frame_len, 0);
            f(&mut buf[..frame_len])
        })
    }

    /// Fills a frame (header + payload) for `page` into `frame`.
    fn encode_frame(frame: &mut [u8], page: PageId, payload: &[u8]) {
        frame[0..4].copy_from_slice(&FRAME_MAGIC);
        frame[4..12].copy_from_slice(&page.0.to_le_bytes());
        frame[12..16].copy_from_slice(&crc32(payload).to_le_bytes());
        frame[FRAME_HEADER..].copy_from_slice(payload);
    }

    /// Verifies a frame read for `page` and returns its payload, or `None`
    /// for a page never written, which reads back as zeroes.
    fn verify_frame(frame: &[u8], page: PageId) -> Result<Option<&[u8]>> {
        let header = &frame[..FRAME_HEADER];
        if header.iter().all(|&b| b == 0) {
            // Never written (fresh allocation): reads back as zeroes. A torn
            // first write of fewer than 4 bytes also lands here and yields
            // the pre-write zero state, which is a consistent prior state.
            return Ok(None);
        }
        if frame[0..4] != FRAME_MAGIC {
            tilestore_obs::hot().checksum_failures.inc();
            return Err(StorageError::ChecksumMismatch { page: page.0 });
        }
        let stored_id = u64::from_le_bytes(frame[4..12].try_into().expect("8-byte slice"));
        if stored_id != page.0 {
            tilestore_obs::hot().checksum_failures.inc();
            return Err(StorageError::MisdirectedPage {
                expected: page.0,
                found: stored_id,
            });
        }
        let stored_crc = u32::from_le_bytes(frame[12..16].try_into().expect("4-byte slice"));
        if stored_crc != crc32(&frame[FRAME_HEADER..]) {
            tilestore_obs::hot().checksum_failures.inc();
            return Err(StorageError::ChecksumMismatch { page: page.0 });
        }
        Ok(Some(&frame[FRAME_HEADER..]))
    }

    /// Reads the `count` frames of consecutive pages from `first` with one
    /// positioned read into a fresh run buffer and verifies every frame
    /// exactly as a single-page read would; a never-written page has its
    /// payload zeroed in place. Only a buffer whose every frame passed is
    /// returned, so no byte of a frame is lent before the whole run is
    /// checked. Frame `i`'s payload sits at `i * frame_size + FRAME_HEADER`.
    fn read_run(&self, first: PageId, count: usize) -> Result<Arc<[u8]>> {
        let fs = self.frame_size() as usize;
        let mut run = zeroed_shared(count * fs);
        if count == 0 {
            return Ok(run);
        }
        self.check_in_range(PageId(first.0 + count as u64 - 1))?;
        let frames = Arc::get_mut(&mut run).expect("a fresh run buffer is unshared");
        self.read_at(frames, first.0 * self.frame_size())?;
        for (i, frame) in frames.chunks_exact_mut(fs).enumerate() {
            if Self::verify_frame(frame, PageId(first.0 + i as u64))?.is_none() {
                frame[FRAME_HEADER..].fill(0);
            }
        }
        tilestore_obs::hot().pages_read.add(count as u64);
        tilestore_obs::tracer().event("page_run_read", || {
            format!("first={} count={count}", first.0)
        });
        Ok(run)
    }
}

impl PageStore for FilePageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocated(&self) -> u64 {
        *lock(&self.allocated)
    }

    fn allocate(&self, count: u64) -> Result<Vec<PageId>> {
        let mut allocated = lock(&self.allocated);
        let first = *allocated;
        *allocated += count;
        let new_len = *allocated * self.frame_size();
        self.file.set_len(new_len)?;
        Ok((first..first + count).map(PageId).collect())
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        assert_eq!(buf.len(), self.page_size, "buffer must be one page");
        self.check_in_range(page)?;
        self.with_frame_buf(|frame| {
            self.read_at(frame, page.0 * self.frame_size())?;
            match Self::verify_frame(frame, page)? {
                Some(payload) => buf.copy_from_slice(payload),
                None => buf.fill(0),
            }
            Ok::<_, StorageError>(())
        })?;
        tilestore_obs::hot().pages_read.inc();
        tilestore_obs::tracer().event("page_read", || format!("page={}", page.0));
        Ok(())
    }

    fn run_read_supported(&self) -> bool {
        true
    }

    /// Frames of consecutive page ids are adjacent in the file, so the
    /// whole run arrives with one positioned read; each frame is then
    /// verified exactly as a single-page read would.
    fn read_page_run(&self, first: PageId, count: usize, buf: &mut [u8]) -> Result<()> {
        assert_eq!(buf.len(), count * self.page_size, "buffer/run mismatch");
        let run = self.read_run(first, count)?;
        let fs = self.frame_size() as usize;
        for (dst, frame) in buf
            .chunks_exact_mut(self.page_size)
            .zip(run.chunks_exact(fs))
        {
            dst.copy_from_slice(&frame[FRAME_HEADER..]);
        }
        Ok(())
    }

    /// Each run of consecutive pages arrives with one positioned read, as
    /// in [`PageStore::read_pages`], and its frames are views of that one
    /// verified run buffer: no page is copied.
    fn read_frames(
        &self,
        pages: &[PageId],
        frames: &mut Vec<Frame>,
        _statement_pages: usize,
    ) -> Result<IoSnapshot> {
        let (ps, fs) = (self.page_size, self.frame_size() as usize);
        read_runs(pages, true, ps, |run| {
            let buf = self.read_run(pages[run.start], run.len())?;
            frames.extend((0..run.len()).map(|i| Frame::view(&buf, i * fs + FRAME_HEADER, ps)));
            Ok(())
        })
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> Result<()> {
        assert_eq!(buf.len(), self.page_size, "buffer must be one page");
        self.check_in_range(page)?;
        let offset = page.0 * self.frame_size();
        self.with_frame_buf(|frame| {
            Self::encode_frame(frame, page, buf);
            self.write_at(frame, offset)
        })?;
        tilestore_obs::hot().pages_written.inc();
        tilestore_obs::tracer().event("page_write", || format!("page={}", page.0));
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }
}

impl TornWritable for FilePageStore {
    fn partial_write_page(&self, page: PageId, buf: &[u8], frame_bytes: usize) -> Result<()> {
        assert_eq!(buf.len(), self.page_size, "buffer must be one page");
        self.check_in_range(page)?;
        let offset = page.0 * self.frame_size();
        self.with_frame_buf(|frame| {
            Self::encode_frame(frame, page, buf);
            let n = frame_bytes.min(frame.len());
            self.write_at(&frame[..n], offset)
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn PageStore) {
        assert_eq!(store.allocated(), 0);
        let pages = store.allocate(3).unwrap();
        assert_eq!(pages, vec![PageId(0), PageId(1), PageId(2)]);
        assert_eq!(store.allocated(), 3);

        let ps = store.page_size();
        let payload: Vec<u8> = (0..ps).map(|i| (i % 256) as u8).collect();
        store.write_page(PageId(1), &payload).unwrap();

        let mut buf = vec![0u8; ps];
        store.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf, payload);

        // Untouched page reads back as zeroes.
        store.read_page(PageId(0), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));

        // Out-of-range access errors.
        assert!(matches!(
            store.read_page(PageId(3), &mut buf),
            Err(StorageError::PageOutOfRange { page: 3, .. })
        ));
        assert!(store.write_page(PageId(99), &payload).is_err());
        store.sync().unwrap();
    }

    #[test]
    fn poisoned_locks_recover() {
        let m = Mutex::new(5);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 5);
    }

    #[test]
    fn mem_store_round_trip() {
        let store = MemPageStore::new(DEFAULT_PAGE_SIZE).unwrap();
        exercise(&store);
    }

    #[test]
    fn file_store_round_trip() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let store = FilePageStore::create(dir.path().join("pages.db"), 1024).unwrap();
        exercise(&store);
    }

    #[test]
    fn file_store_reopen_preserves_pages() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let path = dir.path().join("pages.db");
        let payload = vec![7u8; 1024];
        {
            let store = FilePageStore::create(&path, 1024).unwrap();
            store.allocate(2).unwrap();
            store.write_page(PageId(1), &payload).unwrap();
            store.sync().unwrap();
        }
        let store = FilePageStore::open(&path, 1024).unwrap();
        assert_eq!(store.allocated(), 2);
        let mut buf = vec![0u8; 1024];
        store.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf, payload);
    }

    #[test]
    fn file_store_concurrent_readers_and_writers() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let store = FilePageStore::create(dir.path().join("pages.db"), 512).unwrap();
        let pages = store.allocate(8).unwrap();
        for (i, &p) in pages.iter().enumerate() {
            store.write_page(p, &vec![i as u8; 512]).unwrap();
        }
        std::thread::scope(|s| {
            for (i, &p) in pages.iter().enumerate() {
                let store = &store;
                s.spawn(move || {
                    for round in 0..20u8 {
                        let mut buf = vec![0u8; 512];
                        store.read_page(p, &mut buf).unwrap();
                        assert!(buf.iter().all(|&b| b == buf[0]), "torn page observed");
                        store
                            .write_page(p, &vec![(i as u8).wrapping_add(round); 512])
                            .unwrap();
                    }
                });
            }
        });
        let mut buf = vec![0u8; 512];
        for (i, &p) in pages.iter().enumerate() {
            store.read_page(p, &mut buf).unwrap();
            assert_eq!(buf[0], (i as u8).wrapping_add(19));
        }
    }

    /// A batch with consecutive runs, a lone page, and a reversed pair:
    /// results must match per-page reads, and only the true runs coalesce.
    fn exercise_runs(store: &dyn PageStore) {
        let ps = store.page_size();
        let pages = store.allocate(8).unwrap();
        for (i, &p) in pages.iter().enumerate() {
            store.write_page(p, &vec![i as u8 + 1; ps]).unwrap();
        }
        // [0,1,2] run, [5] single, [4,3] not a run (descending).
        let batch = [
            PageId(0),
            PageId(1),
            PageId(2),
            PageId(5),
            PageId(4),
            PageId(3),
        ];
        let mut buf = vec![0u8; batch.len() * ps];
        let io = store.read_pages(&batch, &mut buf).unwrap();
        assert_eq!(io.pages_read, batch.len() as u64);
        for (i, &p) in batch.iter().enumerate() {
            assert!(
                buf[i * ps..(i + 1) * ps]
                    .iter()
                    .all(|&b| b == p.0 as u8 + 1),
                "page {} landed wrong",
                p.0
            );
        }
        if store.run_read_supported() {
            assert_eq!(io.runs_coalesced, 1, "exactly the [0,1,2] run");
            assert_eq!(io.pages_read_run, 3);
            assert_eq!(io.readahead_bytes, 3 * ps as u64);
        } else {
            assert_eq!((io.runs_coalesced, io.pages_read_run), (0, 0));
        }
        // A run straight through read_page_run, plus out-of-range checks.
        let mut buf = vec![0u8; 2 * ps];
        store.read_page_run(PageId(6), 2, &mut buf).unwrap();
        assert!(buf[..ps].iter().all(|&b| b == 7));
        assert!(buf[ps..].iter().all(|&b| b == 8));
        assert!(store.read_page_run(PageId(7), 2, &mut buf).is_err());
    }

    #[test]
    fn mem_store_coalesces_runs() {
        let store = MemPageStore::new(512).unwrap();
        exercise_runs(&store);
    }

    #[test]
    fn file_store_coalesces_runs() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let store = FilePageStore::create(dir.path().join("pages.db"), 512).unwrap();
        exercise_runs(&store);
    }

    #[test]
    fn run_read_verifies_every_frame() {
        // A frame torn in the middle of a run must fail the whole batch,
        // exactly as a single-page read of that page would.
        let dir = tilestore_testkit::tempdir().unwrap();
        let store = FilePageStore::create(dir.path().join("pages.db"), 512).unwrap();
        let pages = store.allocate(3).unwrap();
        for &p in &pages {
            store.write_page(p, &vec![5u8; 512]).unwrap();
        }
        store
            .partial_write_page(pages[1], &vec![6u8; 512], (FRAME_HEADER + 512) / 2)
            .unwrap();
        let mut buf = vec![0u8; 3 * 512];
        assert!(matches!(
            store.read_page_run(PageId(0), 3, &mut buf),
            Err(StorageError::ChecksumMismatch { page: 1 })
        ));
    }

    #[test]
    fn rejects_tiny_pages() {
        assert!(matches!(
            MemPageStore::new(16),
            Err(StorageError::BadPageSize { size: 16 })
        ));
    }

    #[test]
    fn torn_write_detected_by_checksum() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let store = FilePageStore::create(dir.path().join("pages.db"), 512).unwrap();
        let pages = store.allocate(1).unwrap();
        let old: Vec<u8> = vec![3u8; 512];
        store.write_page(pages[0], &old).unwrap();
        // A rewrite torn half-way through the frame leaves a frame whose
        // header describes the new payload but whose tail is still old.
        let new: Vec<u8> = (0..512).map(|i| (i % 256) as u8).collect();
        store
            .partial_write_page(pages[0], &new, (FRAME_HEADER + 512) / 2)
            .unwrap();
        let mut buf = vec![0u8; 512];
        assert!(matches!(
            store.read_page(pages[0], &mut buf),
            Err(StorageError::ChecksumMismatch { page: 0 })
        ));
        // A full rewrite repairs the page.
        store.write_page(pages[0], &new).unwrap();
        store.read_page(pages[0], &mut buf).unwrap();
        assert_eq!(buf, new);
    }

    #[test]
    fn torn_first_write_reads_as_never_written() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let store = FilePageStore::create(dir.path().join("pages.db"), 512).unwrap();
        let pages = store.allocate(1).unwrap();
        // Fewer than 4 header bytes land: header stays all-zero on disk
        // only if 0 bytes landed; with 2 bytes of magic the frame is
        // detected as corrupt rather than served.
        store
            .partial_write_page(pages[0], &vec![9u8; 512], 2)
            .unwrap();
        let mut buf = vec![0u8; 512];
        assert!(store.read_page(pages[0], &mut buf).is_err());
    }

    #[test]
    fn misdirected_write_detected() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let path = dir.path().join("pages.db");
        let store = FilePageStore::create(&path, 512).unwrap();
        store.allocate(2).unwrap();
        store.write_page(PageId(0), &vec![1u8; 512]).unwrap();
        store.write_page(PageId(1), &vec![2u8; 512]).unwrap();
        drop(store);
        // Swap the two frames on disk: checksums are valid but ids do not
        // match the slots.
        let mut raw = std::fs::read(&path).unwrap();
        let fs = FRAME_HEADER + 512;
        let (a, b) = raw.split_at_mut(fs);
        a.swap_with_slice(&mut b[..fs]);
        std::fs::write(&path, &raw).unwrap();
        let store = FilePageStore::open(&path, 512).unwrap();
        let mut buf = vec![0u8; 512];
        assert!(matches!(
            store.read_page(PageId(0), &mut buf),
            Err(StorageError::MisdirectedPage {
                expected: 0,
                found: 1
            })
        ));
    }
}
