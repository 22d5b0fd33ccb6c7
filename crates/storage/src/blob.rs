//! BLOB storage on top of a page store.
//!
//! In the storage manager, "cells of each tile are stored in a separate
//! BLOB" (§5). A BLOB occupies an integral number of pages — which is why
//! §2 recommends tile sizes approximating multiples of the page size — and
//! reading a BLOB touches all of its pages.
//!
//! # Crash safety
//!
//! Pages freed by [`BlobStore::delete`] or replaced by the copy-on-write
//! [`BlobStore::update`] are *quarantined* rather than immediately reusable:
//! the last committed catalog may still reference them, so overwriting them
//! before the next catalog commit would corrupt the committed state. The
//! engine calls [`BlobStore::release_freed_pages`] once a new catalog is
//! durably on disk, at which point the quarantined pages join the free list.
//! The exported [`BlobDirectory`] folds quarantined pages into its free list
//! because the catalog being written no longer references them.

use std::ops::Range;
use std::sync::Mutex;

use tilestore_testkit::{FromJson, Json, JsonError, ToJson};

use crate::error::{Result, StorageError};
use crate::page::{lock, Frame, PageId, PageStore};
use crate::stats::{IoSnapshot, IoStats};

/// Identifier of a BLOB within a [`BlobStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlobId(pub u64);

impl ToJson for BlobId {
    fn to_json(&self) -> Json {
        Json::UInt(self.0)
    }
}

impl FromJson for BlobId {
    fn from_json(v: &Json) -> std::result::Result<Self, JsonError> {
        Ok(BlobId(u64::from_json(v)?))
    }
}

/// Descriptor of one stored BLOB.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BlobEntry {
    pages: Vec<PageId>,
    len: u64,
}

/// Physical placement of a BLOB on the page store, as reported by
/// [`BlobStore::blob_placement`]. Read planners sort tile fetches by
/// `first_page` so physically adjacent blobs coalesce into single
/// positioned reads; `runs == 1` means the blob itself is contiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobPlacement {
    /// The page holding the first payload bytes of the BLOB.
    pub first_page: PageId,
    /// Number of pages the BLOB occupies.
    pub pages: u64,
    /// Number of maximal physically consecutive page runs the BLOB's pages
    /// form in payload order (1 = fully contiguous).
    pub runs: u64,
}

/// Where one BLOB of a [`BlobStore::read_batch`] lies: a range of the
/// batch's frames, holding `len` payload bytes from the first frame's
/// offset 0 (the last frame is zero-padded past them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobSpan {
    /// Indexes of the BLOB's frames in the batch's frame list.
    pub frames: Range<usize>,
    /// Payload length in bytes.
    pub len: usize,
}

/// Serializable directory of a [`BlobStore`] — persisted by the engine so a
/// database can be reopened.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlobDirectory {
    entries: Vec<(BlobId, BlobEntry)>,
    free_pages: Vec<PageId>,
    next_id: u64,
}

impl ToJson for BlobDirectory {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "entries",
                Json::Array(
                    self.entries
                        .iter()
                        .map(|(id, e)| {
                            Json::obj(vec![
                                ("id", id.to_json()),
                                ("pages", e.pages.to_json()),
                                ("len", e.len.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("free_pages", self.free_pages.to_json()),
            ("next_id", self.next_id.to_json()),
        ])
    }
}

impl BlobDirectory {
    /// Iterates over the stored blobs as `(id, pages, byte length)`.
    pub fn blobs(&self) -> impl Iterator<Item = (BlobId, &[PageId], u64)> {
        self.entries
            .iter()
            .map(|(id, e)| (*id, e.pages.as_slice(), e.len))
    }

    /// The free page list.
    #[must_use]
    pub fn free_pages(&self) -> &[PageId] {
        &self.free_pages
    }

    /// The next blob id to be handed out.
    #[must_use]
    pub fn next_id(&self) -> u64 {
        self.next_id
    }
}

impl FromJson for BlobDirectory {
    fn from_json(v: &Json) -> std::result::Result<Self, JsonError> {
        let entries = v
            .field("entries")?
            .as_array()
            .ok_or_else(|| JsonError::msg("expected array of blob entries"))?
            .iter()
            .map(|e| {
                Ok((
                    BlobId::from_json(e.field("id")?)?,
                    BlobEntry {
                        pages: Vec::from_json(e.field("pages")?)?,
                        len: u64::from_json(e.field("len")?)?,
                    },
                ))
            })
            .collect::<std::result::Result<Vec<_>, JsonError>>()?;
        Ok(BlobDirectory {
            entries,
            free_pages: Vec::from_json(v.field("free_pages")?)?,
            next_id: u64::from_json(v.field("next_id")?)?,
        })
    }
}

/// A BLOB store: variable-length byte strings mapped onto whole pages of an
/// underlying [`PageStore`], with per-operation I/O accounting.
pub struct BlobStore<S> {
    store: S,
    stats: IoStats,
    inner: Mutex<Directory>,
}

#[derive(Debug, Default)]
struct Directory {
    entries: std::collections::BTreeMap<u64, BlobEntry>,
    free_pages: Vec<PageId>,
    /// Pages freed since the last catalog commit. Possibly still referenced
    /// by the committed catalog on disk, so not reusable until
    /// [`BlobStore::release_freed_pages`] confirms a newer commit.
    limbo: Vec<PageId>,
    next_id: u64,
}

impl Directory {
    /// Takes up to `needed` pages off the back of the free list, last
    /// freed first.
    fn take_free(&mut self, needed: u64) -> Vec<PageId> {
        let keep = self.free_pages.len().saturating_sub(needed as usize);
        let mut pages = self.free_pages.split_off(keep);
        pages.reverse();
        pages
    }

    /// Registers a new blob over `pages`, returning its id.
    fn register(&mut self, pages: Vec<PageId>, len: usize) -> BlobId {
        let id = self.next_id;
        self.next_id += 1;
        self.entries.insert(
            id,
            BlobEntry {
                pages,
                len: len as u64,
            },
        );
        BlobId(id)
    }
}

impl<S: PageStore> BlobStore<S> {
    /// Wraps a page store with an empty BLOB directory.
    #[must_use]
    pub fn new(store: S) -> Self {
        BlobStore {
            store,
            stats: IoStats::new(),
            inner: Mutex::new(Directory::default()),
        }
    }

    /// Wraps a page store, restoring a previously exported directory.
    #[must_use]
    pub fn with_directory(store: S, dir: BlobDirectory) -> Self {
        let mut entries = std::collections::BTreeMap::new();
        for (id, e) in dir.entries {
            entries.insert(id.0, e);
        }
        BlobStore {
            store,
            stats: IoStats::new(),
            inner: Mutex::new(Directory {
                entries,
                free_pages: dir.free_pages,
                limbo: Vec::new(),
                next_id: dir.next_id,
            }),
        }
    }

    /// Exports the directory for persistence. Quarantined (freed-but-
    /// uncommitted) pages are exported as free: the catalog this export
    /// goes into no longer references them.
    #[must_use]
    pub fn directory(&self) -> BlobDirectory {
        self.directory_excluding(&std::collections::BTreeSet::new())
    }

    /// Exports the directory for persistence, treating the blobs in
    /// `exclude` as already deleted: their entries are omitted and their
    /// pages exported as free. The engine passes the blobs retired by a
    /// catalog swap but still pinned by live snapshots — the catalog being
    /// written no longer references them, so a reopen from this export must
    /// see their pages as reusable even though the in-memory store keeps
    /// them readable until the last snapshot drops.
    #[must_use]
    pub fn directory_excluding(&self, exclude: &std::collections::BTreeSet<u64>) -> BlobDirectory {
        let inner = lock(&self.inner);
        let mut free_pages = inner.free_pages.clone();
        free_pages.extend_from_slice(&inner.limbo);
        let mut entries = Vec::with_capacity(inner.entries.len());
        for (&id, e) in &inner.entries {
            if exclude.contains(&id) {
                free_pages.extend_from_slice(&e.pages);
            } else {
                entries.push((BlobId(id), e.clone()));
            }
        }
        BlobDirectory {
            entries,
            free_pages,
            next_id: inner.next_id,
        }
    }

    /// Promotes every quarantined page to the free list, returning how many
    /// were released. Call only after a catalog commit is durably on disk —
    /// from that point no committed state references those pages.
    pub fn release_freed_pages(&self) -> u64 {
        let mut inner = lock(&self.inner);
        let n = inner.limbo.len() as u64;
        let limbo = std::mem::take(&mut inner.limbo);
        inner.free_pages.extend(limbo);
        n
    }

    /// Number of immediately reusable free pages.
    #[must_use]
    pub fn free_page_count(&self) -> usize {
        lock(&self.inner).free_pages.len()
    }

    /// Number of pages quarantined until the next catalog commit.
    #[must_use]
    pub fn quarantined_page_count(&self) -> usize {
        lock(&self.inner).limbo.len()
    }

    /// Running totals of this store's calls: the sum of the counts every
    /// read returned (pool hits and misses included) plus every write.
    #[must_use]
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// The underlying page store.
    #[must_use]
    pub fn page_store(&self) -> &S {
        &self.store
    }

    /// Number of live BLOBs.
    #[must_use]
    pub fn blob_count(&self) -> usize {
        lock(&self.inner).entries.len()
    }

    /// Number of pages a BLOB of `len` bytes occupies.
    #[must_use]
    pub fn pages_for(&self, len: u64) -> u64 {
        len.div_ceil(self.store.page_size() as u64).max(1)
    }

    /// Length in bytes of a stored BLOB.
    ///
    /// # Errors
    /// [`StorageError::UnknownBlob`].
    pub fn blob_len(&self, id: BlobId) -> Result<u64> {
        let inner = lock(&self.inner);
        inner
            .entries
            .get(&id.0)
            .map(|e| e.len)
            .ok_or(StorageError::UnknownBlob { blob: id.0 })
    }

    /// Creates a BLOB holding `data`, returning its id.
    ///
    /// Pages are taken from the free list first, then freshly allocated.
    ///
    /// # Errors
    /// Backend allocation/write errors.
    pub fn create(&self, data: &[u8]) -> Result<BlobId> {
        let _span =
            tilestore_obs::tracer().span_with("blob_create", || format!("bytes={}", data.len()));
        let needed = self.pages_for(data.len() as u64);
        let mut pages = lock(&self.inner).take_free(needed);
        if (pages.len() as u64) < needed {
            pages.extend(self.store.allocate(needed - pages.len() as u64)?);
        }
        self.write_payload(&pages, data)?;
        Ok(lock(&self.inner).register(pages, data.len()))
    }

    /// Writes `data` across `pages` page by page, zero-padding the tail,
    /// and counts the write in the totals.
    fn write_payload(&self, pages: &[PageId], data: &[u8]) -> Result<()> {
        let page_size = self.store.page_size();
        let mut buf = vec![0u8; page_size];
        for (i, &page) in pages.iter().enumerate() {
            let start = (i * page_size).min(data.len());
            let chunk = &data[start..(start + page_size).min(data.len())];
            buf[..chunk.len()].copy_from_slice(chunk);
            buf[chunk.len()..].fill(0);
            self.store.write_page(page, &buf)?;
        }
        self.stats.add(&IoSnapshot {
            pages_written: pages.len() as u64,
            blobs_written: 1,
            bytes_written: data.len() as u64,
            ..IoSnapshot::default()
        });
        let hot = tilestore_obs::hot();
        hot.blob_writes.inc();
        hot.tile_bytes.record(data.len() as u64);
        Ok(())
    }

    /// Reads a whole BLOB.
    ///
    /// # Errors
    /// [`StorageError::UnknownBlob`] or backend read errors.
    pub fn read(&self, id: BlobId) -> Result<Vec<u8>> {
        let mut data = Vec::new();
        self.read_into(id, &mut data)?;
        Ok(data)
    }

    /// Reads a whole BLOB into a caller-supplied buffer, returning the
    /// counts of this call; `data` ends up exactly the payload length. The
    /// buffer is resized as needed; reusing one buffer across calls avoids a
    /// fresh zeroed allocation per tile, which matters on the parallel query
    /// path where each worker reads many tiles.
    ///
    /// # Errors
    /// [`StorageError::UnknownBlob`] or backend read errors.
    pub fn read_into(&self, id: BlobId, data: &mut Vec<u8>) -> Result<IoSnapshot> {
        let _span = tilestore_obs::tracer().span_with("blob_read", || format!("blob={}", id.0));
        let entry = {
            let inner = lock(&self.inner);
            inner
                .entries
                .get(&id.0)
                .cloned()
                .ok_or(StorageError::UnknownBlob { blob: id.0 })?
        };
        let page_size = self.store.page_size();
        data.resize(entry.pages.len() * page_size, 0);
        // One batched read: a caching store serves all hits in a shard under
        // a single lock acquisition and copies misses straight into `data`,
        // so no pinning window exists and concurrent tile fetches stop
        // convoying on per-page pin/read/unpin lock traffic.
        let mut io = self.store.read_pages(&entry.pages, data)?;
        data.truncate(entry.len as usize);
        io.blobs_read = 1;
        io.bytes_read = entry.len;
        self.stats.add(&io);
        let hot = tilestore_obs::hot();
        hot.blob_reads.inc();
        hot.tile_bytes.record(entry.len);
        Ok(io)
    }

    /// Physical placement of a BLOB: its first page, page count, and how
    /// many physically consecutive runs its pages form. Planners sort tile
    /// fetches by `first_page` so curve-ordered neighbours coalesce.
    ///
    /// # Errors
    /// [`StorageError::UnknownBlob`].
    pub fn blob_placement(&self, id: BlobId) -> Result<BlobPlacement> {
        let inner = lock(&self.inner);
        let entry = inner
            .entries
            .get(&id.0)
            .ok_or(StorageError::UnknownBlob { blob: id.0 })?;
        let mut runs = 0u64;
        for (i, p) in entry.pages.iter().enumerate() {
            if i == 0 || p.0 != entry.pages[i - 1].0 + 1 {
                runs += 1;
            }
        }
        Ok(BlobPlacement {
            first_page: entry.pages[0],
            pages: entry.pages.len() as u64,
            runs,
        })
    }

    /// Reads several BLOBs with one batched page read, appending their
    /// pages' frames to `frames` and returning, in the order of `ids`, the
    /// span of frames each BLOB occupies, with the counts of this call. The
    /// page lists are concatenated before the read, so blobs that sit on
    /// physically consecutive pages — the invariant the defragmenter
    /// establishes — coalesce into single positioned reads even across blob
    /// boundaries. Over a buffer pool the frames of hits are the pool's own,
    /// lent without a copy, and the frames of misses are views of the run
    /// buffers the misses were read into. `statement_pages` is the page
    /// total of the statement the batch belongs to, forwarded to
    /// [`PageStore::read_frames`]: the pool installs a large statement's
    /// misses only on their second touch.
    ///
    /// # Errors
    /// [`StorageError::UnknownBlob`] (no pages are read) or backend read
    /// errors.
    pub fn read_batch(
        &self,
        ids: &[BlobId],
        frames: &mut Vec<Frame>,
        statement_pages: usize,
    ) -> Result<(Vec<BlobSpan>, IoSnapshot)> {
        let _span =
            tilestore_obs::tracer().span_with("blob_read_batch", || format!("blobs={}", ids.len()));
        // Resolve every id under one directory lock so the batch sees one
        // consistent directory state and unknown ids fail before any I/O.
        let base = frames.len();
        let mut pages = Vec::new();
        let mut spans = Vec::with_capacity(ids.len());
        {
            let inner = lock(&self.inner);
            for id in ids {
                let e = inner
                    .entries
                    .get(&id.0)
                    .ok_or(StorageError::UnknownBlob { blob: id.0 })?;
                let first = base + pages.len();
                pages.extend_from_slice(&e.pages);
                spans.push(BlobSpan {
                    frames: first..base + pages.len(),
                    len: e.len as usize,
                });
            }
        }
        let mut io = self.store.read_frames(&pages, frames, statement_pages)?;
        io.blobs_read = spans.len() as u64;
        let hot = tilestore_obs::hot();
        for span in &spans {
            io.bytes_read += span.len as u64;
            hot.blob_reads.inc();
            hot.tile_bytes.record(span.len as u64);
        }
        self.stats.add(&io);
        Ok((spans, io))
    }

    /// Creates a BLOB like [`BlobStore::create`], but on freshly allocated,
    /// physically consecutive pages — the free list is never consulted. The
    /// defragmenter uses this to rewrite an object's tiles in curve order at
    /// the end of the file, where consecutive creates yield consecutive page
    /// runs; the displaced pages are quarantined by the usual delete path
    /// and reclaimed after the commit.
    ///
    /// # Errors
    /// Backend allocation/write errors.
    pub fn create_contiguous(&self, data: &[u8]) -> Result<BlobId> {
        let _span = tilestore_obs::tracer()
            .span_with("blob_create_contiguous", || format!("bytes={}", data.len()));
        let pages = self.store.allocate(self.pages_for(data.len() as u64))?;
        self.write_payload(&pages, data)?;
        Ok(lock(&self.inner).register(pages, data.len()))
    }

    /// Overwrites a BLOB with new contents, copy-on-write: the new payload
    /// is written to fresh (or free-listed) pages and the directory entry
    /// swaps over only when every page landed. On any error the entry and
    /// the old pages are untouched, and the scratch pages return to the
    /// free list. The replaced pages are quarantined until the next catalog
    /// commit ([`BlobStore::release_freed_pages`]).
    ///
    /// # Errors
    /// [`StorageError::UnknownBlob`] or backend errors; the blob keeps its
    /// prior contents in every error case.
    pub fn update(&self, id: BlobId, data: &[u8]) -> Result<()> {
        let needed = self.pages_for(data.len() as u64);
        // Check existence and take scratch pages from the free list without
        // touching the entry itself.
        let mut new_pages = {
            let mut inner = lock(&self.inner);
            if !inner.entries.contains_key(&id.0) {
                return Err(StorageError::UnknownBlob { blob: id.0 });
            }
            inner.take_free(needed)
        };
        let write_all = |new_pages: &mut Vec<PageId>| -> Result<()> {
            if (new_pages.len() as u64) < needed {
                new_pages.extend(self.store.allocate(needed - new_pages.len() as u64)?);
            }
            self.write_payload(new_pages, data)
        };
        if let Err(e) = write_all(&mut new_pages) {
            // Roll back: the scratch pages never joined the entry, so they
            // can return to the free pool directly; the directory entry and
            // the old pages are exactly as before the call.
            lock(&self.inner).free_pages.extend(new_pages);
            return Err(e);
        }
        let mut inner = lock(&self.inner);
        let old_pages = match inner.entries.get_mut(&id.0) {
            Some(entry) => {
                let old = std::mem::replace(&mut entry.pages, new_pages);
                entry.len = data.len() as u64;
                old
            }
            None => {
                // Deleted concurrently: hand the scratch pages back rather
                // than resurrecting the blob.
                inner.free_pages.extend(new_pages);
                return Err(StorageError::UnknownBlob { blob: id.0 });
            }
        };
        inner.limbo.extend(old_pages);
        Ok(())
    }

    /// Deletes a BLOB. Its pages are quarantined until the next catalog
    /// commit, then become reusable.
    ///
    /// # Errors
    /// [`StorageError::UnknownBlob`].
    pub fn delete(&self, id: BlobId) -> Result<()> {
        let mut inner = lock(&self.inner);
        let entry = inner
            .entries
            .remove(&id.0)
            .ok_or(StorageError::UnknownBlob { blob: id.0 })?;
        inner.limbo.extend(entry.pages);
        Ok(())
    }

    /// Cross-checks the directory against the page store: every referenced
    /// page must be inside the allocated range, no page may be referenced
    /// twice, and every allocated page should be accounted for. Unreferenced
    /// (orphaned) pages arise when a crash lands between page writes and the
    /// catalog commit; they are safe to reclaim.
    #[must_use]
    pub fn check_pages(&self) -> PageCheck {
        let inner = lock(&self.inner);
        let allocated = self.store.allocated();
        let mut seen = std::collections::BTreeMap::<u64, u64>::new();
        let mut dangling = Vec::new();
        let mut mark = |p: PageId, dangling: &mut Vec<PageId>| {
            if p.0 >= allocated {
                dangling.push(p);
            }
            *seen.entry(p.0).or_insert(0) += 1;
        };
        for e in inner.entries.values() {
            for &p in &e.pages {
                mark(p, &mut dangling);
            }
        }
        for &p in inner.free_pages.iter().chain(inner.limbo.iter()) {
            mark(p, &mut dangling);
        }
        let duplicated: Vec<PageId> = seen
            .iter()
            .filter(|&(_, &n)| n > 1)
            .map(|(&p, _)| PageId(p))
            .collect();
        let orphaned: Vec<PageId> = (0..allocated)
            .filter(|p| !seen.contains_key(p))
            .map(PageId)
            .collect();
        PageCheck {
            allocated,
            orphaned,
            dangling,
            duplicated,
        }
    }

    /// Reclaims every orphaned page onto the free list, returning how many
    /// were recovered. Orphans are pages a crash left allocated but
    /// unreferenced; the committed catalog never points at them, so reusing
    /// them is safe.
    pub fn reclaim_orphans(&self) -> u64 {
        let orphaned = self.check_pages().orphaned;
        let n = orphaned.len() as u64;
        if n > 0 {
            let mut inner = lock(&self.inner);
            inner.free_pages.extend(orphaned);
            tilestore_obs::hot().orphaned_pages_reclaimed.add(n);
        }
        n
    }
}

/// Result of [`BlobStore::check_pages`]: how the directory's page
/// references line up with the page store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageCheck {
    /// Pages allocated in the backing store.
    pub allocated: u64,
    /// Allocated pages referenced by no blob and no free list — leaked by a
    /// crash between page writes and the catalog commit; reclaimable.
    pub orphaned: Vec<PageId>,
    /// Referenced pages outside the allocated range — the catalog is newer
    /// than the page file (or the file was truncated); not repairable.
    pub dangling: Vec<PageId>,
    /// Pages referenced more than once (two blobs, or a blob and the free
    /// list) — directory corruption; not repairable.
    pub duplicated: Vec<PageId>,
}

impl PageCheck {
    /// True when the directory and page store are fully consistent.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.orphaned.is_empty() && self.dangling.is_empty() && self.duplicated.is_empty()
    }

    /// True when every inconsistency is a reclaimable orphan.
    #[must_use]
    pub fn is_repairable(&self) -> bool {
        self.dangling.is_empty() && self.duplicated.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::MemPageStore;

    fn store() -> BlobStore<MemPageStore> {
        BlobStore::new(MemPageStore::new(1024).unwrap())
    }

    #[test]
    fn create_read_round_trip() {
        let bs = store();
        let data: Vec<u8> = (0..3000).map(|i| (i % 256) as u8).collect();
        let id = bs.create(&data).unwrap();
        assert_eq!(bs.read(id).unwrap(), data);
        assert_eq!(bs.blob_len(id).unwrap(), 3000);
        assert_eq!(bs.blob_count(), 1);
    }

    #[test]
    fn io_accounting_counts_whole_pages() {
        let bs = store();
        let id = bs.create(&vec![1u8; 2500]).unwrap(); // 3 pages of 1024
        let written = bs.stats().snapshot();
        assert_eq!((written.pages_written, written.bytes_written), (3, 2500));
        let mut data = Vec::new();
        let s = bs.read_into(id, &mut data).unwrap();
        assert_eq!(data.len(), 2500);
        assert_eq!(s.pages_read, 3);
        assert_eq!(s.blobs_read, 1);
        assert_eq!(s.bytes_read, 2500);
        assert_eq!(s.pages_written, 0, "a read returns only its own counts");
        assert_eq!(bs.stats().snapshot().since(&written), s);
    }

    #[test]
    fn totals_pick_up_the_pool_counts_each_read_returns() {
        let pool = crate::BufferPool::new(MemPageStore::new(1024).unwrap(), 8).unwrap();
        let bs = BlobStore::new(pool);
        let id = bs.create(&vec![3u8; 2048]).unwrap();
        let mut data = Vec::new();
        let cold = bs.read_into(id, &mut data).unwrap();
        let warm = bs.read_into(id, &mut data).unwrap();
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 2));
        assert_eq!((warm.cache_hits, warm.cache_misses), (2, 0));
        let total = bs.stats().snapshot();
        assert_eq!((total.cache_hits, total.cache_misses), (2, 2));
        assert_eq!(total.pages_read, 4);
    }

    #[test]
    fn placement_reports_runs() {
        let bs = store();
        let a = bs.create(&vec![1u8; 2048]).unwrap(); // pages 0,1
        let b = bs.create(&vec![2u8; 1024]).unwrap(); // page 2
        let p = bs.blob_placement(a).unwrap();
        assert_eq!(p.first_page, PageId(0));
        assert_eq!(p.pages, 2);
        assert_eq!(p.runs, 1);
        // Free the middle blob, then create a 2-page blob: it draws page 2
        // from the free list plus a fresh page 3 — still one run here, so
        // fragment it for real with a free page that is not adjacent.
        bs.delete(b).unwrap();
        bs.release_freed_pages();
        let c = bs.create(&vec![3u8; 2048]).unwrap(); // pages 2,3 (contiguous)
        assert_eq!(bs.blob_placement(c).unwrap().runs, 1);
        bs.delete(a).unwrap();
        bs.release_freed_pages();
        // Free list now holds pages 0,1 (popped from the back: 1 then 0),
        // so this blob's payload order is 1,0 — two runs.
        let d = bs.create(&vec![4u8; 2048]).unwrap();
        let p = bs.blob_placement(d).unwrap();
        assert_eq!(p.first_page, PageId(1));
        assert_eq!(p.runs, 2);
        assert!(bs.blob_placement(BlobId(99)).is_err());
    }

    #[test]
    fn read_batch_returns_each_payload_and_coalesces() {
        let bs = store();
        let payloads: Vec<Vec<u8>> = (0..4u8)
            .map(|i| vec![i; 700 + 400 * i as usize]) // 1..=3 pages each
            .collect();
        let ids: Vec<BlobId> = payloads.iter().map(|p| bs.create(p).unwrap()).collect();
        let total_pages: u64 = payloads.iter().map(|p| bs.pages_for(p.len() as u64)).sum();
        let before = bs.stats().snapshot();
        let mut out = Vec::new();
        let (spans, s) = bs.read_batch(&ids, &mut out, total_pages as usize).unwrap();
        assert_eq!(spans.len(), 4);
        for (i, span) in spans.iter().enumerate() {
            let bytes: Vec<u8> = out[span.frames.clone()]
                .iter()
                .flat_map(|f| f.iter().copied())
                .collect();
            assert_eq!(&bytes[..span.len], payloads[i].as_slice());
        }
        assert_eq!(bs.stats().snapshot().since(&before), s);
        assert_eq!(s.blobs_read, 4);
        assert_eq!(s.bytes_read, payloads.iter().map(|p| p.len() as u64).sum());
        assert_eq!(s.pages_read, total_pages);
        // Sequential creates land on consecutive pages, so the whole batch
        // is one physical run.
        assert_eq!(s.runs_coalesced, 1);
        assert_eq!(s.pages_read_run, total_pages);
        // An unknown id fails the whole batch before any I/O.
        let before = bs.stats().snapshot();
        assert!(bs
            .read_batch(&[ids[0], BlobId(99)], &mut out, total_pages as usize)
            .is_err());
        assert_eq!(bs.stats().snapshot(), before);
    }

    #[test]
    fn create_contiguous_skips_the_free_list() {
        let bs = store();
        let a = bs.create(&vec![1u8; 2048]).unwrap();
        bs.delete(a).unwrap();
        bs.release_freed_pages();
        assert_eq!(bs.free_page_count(), 2);
        let data: Vec<u8> = (0..3000).map(|i| (i % 251) as u8).collect();
        let id = bs.create_contiguous(&data).unwrap();
        // The free pages were left alone; fresh pages were appended.
        assert_eq!(bs.free_page_count(), 2);
        let p = bs.blob_placement(id).unwrap();
        assert_eq!(p.first_page, PageId(2));
        assert_eq!(p.runs, 1);
        assert_eq!(bs.read(id).unwrap(), data);
    }

    #[test]
    fn empty_blob_occupies_one_page() {
        let bs = store();
        let id = bs.create(&[]).unwrap();
        assert_eq!(bs.read(id).unwrap(), Vec::<u8>::new());
        assert_eq!(bs.page_store().allocated(), 1);
    }

    #[test]
    fn delete_recycles_pages_after_commit() {
        let bs = store();
        let a = bs.create(&vec![1u8; 2048]).unwrap(); // 2 pages
        bs.delete(a).unwrap();
        // Freed pages are quarantined until the next catalog commit: a
        // create before the commit must not overwrite them.
        assert_eq!(bs.quarantined_page_count(), 2);
        assert_eq!(bs.free_page_count(), 0);
        assert_eq!(bs.release_freed_pages(), 2);
        let before = bs.page_store().allocated();
        let b = bs.create(&vec![2u8; 2048]).unwrap(); // reuses freed pages
        assert_eq!(bs.page_store().allocated(), before);
        assert_eq!(bs.read(b).unwrap(), vec![2u8; 2048]);
        assert!(matches!(bs.read(a), Err(StorageError::UnknownBlob { .. })));
        assert!(bs.delete(a).is_err());
    }

    #[test]
    fn update_grows_and_shrinks() {
        let bs = store();
        let id = bs.create(&[1u8; 100]).unwrap();
        bs.update(id, &vec![2u8; 5000]).unwrap();
        assert_eq!(bs.read(id).unwrap(), vec![2u8; 5000]);
        bs.update(id, &[3u8; 10]).unwrap();
        assert_eq!(bs.read(id).unwrap(), vec![3u8; 10]);
        // Replaced pages become reusable after the commit point.
        bs.release_freed_pages();
        let before = bs.page_store().allocated();
        let other = bs.create(&vec![4u8; 4096]).unwrap();
        assert_eq!(bs.page_store().allocated(), before);
        assert_eq!(bs.read(other).unwrap(), vec![4u8; 4096]);
    }

    #[test]
    fn update_failure_keeps_old_contents_and_free_list() {
        use crate::fault::{FaultInjectingPageStore, FaultPlan};
        let bs = BlobStore::new(FaultInjectingPageStore::new(
            MemPageStore::new(1024).unwrap(),
        ));
        let old: Vec<u8> = (0..2500).map(|i| (i % 256) as u8).collect();
        let id = bs.create(&old).unwrap(); // ops 0..=3: allocate + 3 writes
                                           // Seed the free list so the failed update draws from it.
        let scratch = bs.create(&vec![9u8; 2048]).unwrap();
        bs.delete(scratch).unwrap();
        bs.release_freed_pages();
        assert_eq!(bs.free_page_count(), 2);
        // Fail the second page write of the update, transiently.
        let next_op = bs.page_store().ops();
        bs.page_store()
            .set_plan(FaultPlan::transient(&[next_op + 2]));
        let err = bs.update(id, &vec![7u8; 3000]).unwrap_err();
        assert!(matches!(err, StorageError::Injected { .. }));
        // The blob still reads its prior contents; every scratch page (the
        // two free-listed ones plus the one freshly allocated) returned to
        // the free list.
        assert_eq!(bs.read(id).unwrap(), old);
        assert_eq!(bs.blob_len(id).unwrap(), 2500);
        assert_eq!(bs.free_page_count(), 3);
        // A retry then succeeds.
        bs.update(id, &vec![7u8; 3000]).unwrap();
        assert_eq!(bs.read(id).unwrap(), vec![7u8; 3000]);
    }

    #[test]
    fn update_failure_during_allocation_rolls_back() {
        use crate::fault::{FaultInjectingPageStore, FaultPlan};
        let bs = BlobStore::new(FaultInjectingPageStore::new(
            MemPageStore::new(1024).unwrap(),
        ));
        let id = bs.create(&vec![5u8; 1000]).unwrap();
        let next_op = bs.page_store().ops();
        // Fail the allocate itself (first op of the growing update).
        bs.page_store().set_plan(FaultPlan::transient(&[next_op]));
        assert!(bs.update(id, &vec![6u8; 4000]).is_err());
        assert_eq!(bs.read(id).unwrap(), vec![5u8; 1000]);
        assert_eq!(bs.free_page_count(), 0);
        assert_eq!(bs.quarantined_page_count(), 0);
    }

    #[test]
    fn check_pages_reports_and_reclaims_orphans() {
        let bs = store();
        let keep = bs.create(&vec![1u8; 3000]).unwrap(); // 3 pages
        assert!(bs.check_pages().is_clean());
        // Simulate a crash that left pages allocated but unreferenced: a
        // directory snapshot taken *before* an extra create, restored over
        // the same page store.
        let dir = bs.directory();
        bs.create(&vec![2u8; 2048]).unwrap(); // 2 more pages, not in `dir`
        let BlobStore { store: pages, .. } = bs;
        let bs = BlobStore::with_directory(pages, dir);
        let check = bs.check_pages();
        assert_eq!(check.allocated, 5);
        assert_eq!(check.orphaned, vec![PageId(3), PageId(4)]);
        assert!(check.dangling.is_empty() && check.duplicated.is_empty());
        assert!(check.is_repairable() && !check.is_clean());
        assert_eq!(bs.reclaim_orphans(), 2);
        assert!(bs.check_pages().is_clean());
        assert_eq!(bs.free_page_count(), 2);
        assert_eq!(bs.read(keep).unwrap(), vec![1u8; 3000]);
    }

    #[test]
    fn check_pages_flags_dangling_and_duplicates() {
        let mem = MemPageStore::new(1024).unwrap();
        // Hand-build a directory referencing page 7 (never allocated) and
        // page 0 twice.
        let bs = BlobStore::new(mem);
        bs.create(&vec![1u8; 512]).unwrap(); // page 0
        let mut dir = bs.directory();
        dir.free_pages.push(PageId(0)); // duplicate: live and free
        dir.free_pages.push(PageId(7)); // dangling
        let BlobStore { store: pages, .. } = bs;
        let bs = BlobStore::with_directory(pages, dir);
        let check = bs.check_pages();
        assert_eq!(check.dangling, vec![PageId(7)]);
        assert_eq!(check.duplicated, vec![PageId(0)]);
        assert!(!check.is_repairable());
    }

    #[test]
    fn directory_round_trip_preserves_blobs() {
        let mem = MemPageStore::new(1024).unwrap();
        let bs = BlobStore::new(mem);
        let data = vec![9u8; 1500];
        let id = bs.create(&data).unwrap();
        let dir = bs.directory();
        // Re-wrap the same page store (simulating reopen).
        let BlobStore { store, .. } = bs;
        let bs2 = BlobStore::with_directory(store, dir);
        assert_eq!(bs2.read(id).unwrap(), data);
        // Fresh ids don't collide with restored ones.
        let id2 = bs2.create(&[1, 2, 3]).unwrap();
        assert_ne!(id, id2);
    }

    #[test]
    fn directory_excluding_frees_retired_blobs_in_the_export() {
        let bs = store();
        let keep = bs.create(&vec![1u8; 2048]).unwrap(); // pages 0,1
        let retired = bs.create(&vec![2u8; 1024]).unwrap(); // page 2
        let exclude: std::collections::BTreeSet<u64> = [retired.0].into_iter().collect();
        let dir = bs.directory_excluding(&exclude);
        // The export omits the retired blob and frees its pages...
        assert_eq!(dir.blobs().count(), 1);
        assert_eq!(dir.blobs().next().unwrap().0, keep);
        assert_eq!(dir.free_pages(), &[PageId(2)]);
        // ...while the in-memory store still serves it to live snapshots.
        assert_eq!(bs.read(retired).unwrap(), vec![2u8; 1024]);
        // A reopen from the export sees a clean page accounting.
        let BlobStore { store: pages, .. } = bs;
        let bs2 = BlobStore::with_directory(pages, dir);
        assert!(bs2.check_pages().is_clean());
        assert_eq!(bs2.read(keep).unwrap(), vec![1u8; 2048]);
        assert!(bs2.read(retired).is_err());
    }

    #[test]
    fn many_blobs_keep_distinct_contents() {
        let bs = store();
        let ids: Vec<BlobId> = (0..50u8)
            .map(|i| bs.create(&vec![i; (i as usize + 1) * 37]).unwrap())
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(bs.read(id).unwrap(), vec![i as u8; (i + 1) * 37]);
        }
    }
}
