//! Sharded LRU buffer pool over a page store.
//!
//! The paper measures cold-cache retrieval times (`t_o`); the pool exists to
//! show (and benchmark) how caching changes the picture, and to serve as the
//! realistic substrate a DBMS would run on. It wraps any [`PageStore`] and
//! is itself a [`PageStore`], so the BLOB layer can run with or without it.
//!
//! # Shared frames
//!
//! A cached page is a [`Frame`] that owns its one page. A read lends it: a
//! hit clones the `Arc` under the shard lock, so the reader pastes or decodes
//! straight from the pool's bytes, and the frame stays alive in the reader's
//! hands even if the pool evicts or rewrites the page meanwhile. A miss
//! lends the store's frame — over a file store, a view into the run buffer
//! its positioned read filled — and the pool copies that view out only if
//! it installs the page, so cached memory stays `capacity × page_size`.
//!
//! # Scan admission
//!
//! A statement that fetches more than a quarter of the pool's frames is a
//! scan, and the LRU rule "install every miss" would let one such scan
//! evict the whole working set for pages nobody reads again. A scan's miss
//! is therefore installed only on its second touch: each shard keeps a
//! ghost list of the page ids scans recently skipped (at most one shard
//! capacity of ids, no bytes), a scan miss whose id is a ghost is installed,
//! and any other scan miss is lent uncached and becomes a ghost. A repeated
//! large window installs on its second pass and hits from its third; a
//! one-off scan leaves the cached pages alone. Statements under the
//! threshold install every miss, as plain LRU does.
//!
//! # Sharding
//!
//! The frame table is split into `N` shards (a power of two), each with its
//! own mutex, LRU state and `capacity / N` frames. A page maps to a shard by
//! a Fibonacci hash of its id, so concurrent readers touching different
//! pages contend on different locks instead of funnelling through one
//! global mutex. Within a shard, recency is a doubly linked list threaded
//! through the frame slots by index, so a hit, an install and an eviction
//! are each O(1).
//!
//! # Freshness invariant
//!
//! The pool is write-through, and it guarantees: **after `write_page(p, new)`
//! returns, no read of `p` observes bytes older than `new`**. A write swaps
//! a fresh frame into the slot of a cached page, so a frame lent before the
//! write keeps the bytes it was read with, exactly as a copy taken then
//! would. The miss path fetches from the store outside the lock; each shard
//! keeps a write-version counter, sampled when the miss starts, and the
//! fetched frames are installed only if no write landed on the shard in
//! between — otherwise the (possibly stale) fetch is lent but the frame
//! table is left untouched. This is conservative (a write to a *different*
//! page in the same shard also voids the install), which costs at most a
//! re-fetch, never staleness.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

use tilestore_obs::Counter;

use crate::error::Result;
use crate::page::{lock, Frame, PageId, PageStore};
use crate::stats::{IoSnapshot, IoStats};

/// Default number of shards, clamped down so every shard holds ≥ 1 frame.
pub const DEFAULT_SHARDS: usize = 8;

/// The Fibonacci multiplier: `2^64 / φ`, odd.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// End of a shard's recency list.
const NIL: u32 = u32::MAX;

/// Hashes a page id with one multiply. Page ids are dense integers, so
/// SipHash's defence against chosen keys buys nothing here.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FIB);
        }
    }

    fn write_u64(&mut self, page: u64) {
        self.0 = page.wrapping_mul(FIB);
    }
}

/// A write-through, sharded LRU page cache.
pub struct BufferPool<S> {
    store: S,
    stats: IoStats,
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; the shard count is a power of two.
    mask: u64,
    /// A statement fetching more pages than this is a scan: its misses are
    /// installed only on their second touch.
    scan_pages: usize,
}

/// One lock domain of the pool: its own LRU state and frame budget.
struct Shard {
    capacity: usize,
    inner: Mutex<PoolInner>,
    /// Per-shard cache counters (`pool.shard<i>.cache_hits` / `_misses`),
    /// pre-resolved so the hot path never takes the registry lock.
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

/// One cached page, linked into its shard's recency list.
struct Slot {
    page: u64,
    frame: Frame,
    /// Neighbours in the recency list: `prev` was used more recently.
    prev: u32,
    next: u32,
}

struct PoolInner {
    /// page -> index of its slot.
    map: HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
    /// The cached frames. Invariant: `map` and `slots` hold exactly the
    /// same pages, and the list from `head` through `next` links visits
    /// every slot once, most recently used first.
    slots: Vec<Slot>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot: the eviction victim.
    tail: u32,
    /// Bumped by every `write_page` that maps to this shard. A miss samples
    /// it before fetching; if it moved by install time the fetched bytes may
    /// predate a completed write and are not installed.
    writes: u64,
    /// Pages scans recently skipped installing.
    ghosts: Ghosts,
}

/// A bounded FIFO set of page ids: the pages scans skipped installing, most
/// recent last. `ring` holds the ids in insertion order, overwritten
/// cyclically once full; `map` holds the live ones with their ring index.
/// An id taken out of the set leaves a dead ring entry behind, which the
/// cyclic overwrite recycles, so both stay within `capacity`.
struct Ghosts {
    map: HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
    ring: Vec<u64>,
    /// Ring index the next id overwrites once the ring is full.
    next: u32,
}

impl Ghosts {
    fn new() -> Self {
        Ghosts {
            map: HashMap::default(),
            ring: Vec::new(),
            next: 0,
        }
    }

    /// Takes `page` out of the set, reporting whether it was in it.
    fn take(&mut self, page: u64) -> bool {
        self.map.remove(&page).is_some()
    }

    /// Adds `page` as the most recent id, dropping the oldest when the set
    /// holds `capacity` ids.
    fn add(&mut self, page: u64, capacity: usize) {
        let i = if self.ring.len() < capacity {
            self.ring.push(page);
            (self.ring.len() - 1) as u32
        } else {
            let i = self.next;
            let old = std::mem::replace(&mut self.ring[i as usize], page);
            if self.map.get(&old) == Some(&i) {
                self.map.remove(&old);
            }
            self.next = (i + 1) % capacity as u32;
            i
        };
        self.map.insert(page, i);
    }

    fn clear(&mut self) {
        self.map.clear();
        self.ring.clear();
        self.next = 0;
    }
}

impl PoolInner {
    fn new() -> Self {
        PoolInner {
            map: HashMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            writes: 0,
            ghosts: Ghosts::new(),
        }
    }

    fn slot(&mut self, s: u32) -> &mut Slot {
        &mut self.slots[s as usize]
    }

    fn unlink(&mut self, s: u32) {
        let Slot { prev, next, .. } = self.slots[s as usize];
        match prev {
            NIL => self.head = next,
            p => self.slot(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slot(n).prev = prev,
        }
    }

    fn push_front(&mut self, s: u32) {
        let head = self.head;
        let slot = self.slot(s);
        slot.prev = NIL;
        slot.next = head;
        match head {
            NIL => self.tail = s,
            h => self.slot(h).prev = s,
        }
        self.head = s;
    }

    /// The cached slot of `page`, marked most recently used.
    fn touch(&mut self, page: u64) -> Option<u32> {
        let s = *self.map.get(&page)?;
        if self.head != s {
            self.unlink(s);
            self.push_front(s);
        }
        Some(s)
    }

    /// Installs `frame` for an uncached `page` as the most recently used,
    /// taking over the least recently used slot when the shard holds
    /// `capacity` frames.
    fn install(&mut self, page: u64, frame: Frame, capacity: usize) {
        let fresh = Slot {
            page,
            frame,
            prev: NIL,
            next: NIL,
        };
        let s = if self.slots.len() < capacity {
            self.slots.push(fresh);
            (self.slots.len() - 1) as u32
        } else {
            let s = self.tail;
            self.unlink(s);
            let victim = std::mem::replace(self.slot(s), fresh);
            self.map.remove(&victim.page);
            s
        };
        self.map.insert(page, s);
        self.push_front(s);
    }
}

/// Largest power of two `<= n` (`n >= 1`).
fn floor_pow2(n: usize) -> usize {
    1 << (usize::BITS - 1 - n.leading_zeros())
}

impl<S: PageStore> BufferPool<S> {
    /// Wraps `store` with an LRU cache of `capacity` frames, split across
    /// [`DEFAULT_SHARDS`] shards (fewer when `capacity` is small).
    ///
    /// # Errors
    /// [`crate::StorageError::ZeroCapacity`] when `capacity == 0`.
    pub fn new(store: S, capacity: usize) -> Result<Self> {
        BufferPool::with_shards(store, capacity, DEFAULT_SHARDS)
    }

    /// Wraps `store` with an LRU cache of `capacity` frames split across
    /// `shards` lock domains. The shard count is rounded down to a power of
    /// two and clamped to `[1, capacity]` so every shard owns at least one
    /// frame; `capacity` splits evenly with any remainder going to the
    /// lowest-numbered shards, so the totals always add up to `capacity`.
    ///
    /// # Errors
    /// [`crate::StorageError::ZeroCapacity`] when `capacity == 0`.
    pub fn with_shards(store: S, capacity: usize, shards: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(crate::error::StorageError::ZeroCapacity);
        }
        let n = floor_pow2(shards.max(1)).min(floor_pow2(capacity));
        let reg = tilestore_obs::metrics();
        let shards: Vec<Shard> = (0..n)
            .map(|i| Shard {
                capacity: capacity / n + usize::from(i < capacity % n),
                inner: Mutex::new(PoolInner::new()),
                hits: reg.counter(&format!("pool.shard{i}.cache_hits")),
                misses: reg.counter(&format!("pool.shard{i}.cache_misses")),
            })
            .collect();
        Ok(BufferPool {
            store,
            stats: IoStats::new(),
            shards: shards.into_boxed_slice(),
            mask: (n - 1) as u64,
            scan_pages: (capacity / 4).max(1),
        })
    }

    /// The shard a page id maps to. Fibonacci hashing spreads the sequential
    /// page ids a tile occupies across shards, so one tile read touches
    /// several lock domains instead of hammering one.
    fn shard_index(&self, page: u64) -> usize {
        (page.wrapping_mul(FIB) >> 33 & self.mask) as usize
    }

    /// `(shard, index)` for every page of `pages`, sorted: each shard's
    /// pages together, in caller order within the shard.
    fn by_shard(
        &self,
        pages: &[PageId],
        indices: impl Iterator<Item = usize>,
    ) -> Vec<(usize, usize)> {
        let mut order: Vec<(usize, usize)> =
            indices.map(|i| (self.shard_index(pages[i].0), i)).collect();
        order.sort_unstable();
        order
    }

    /// Locks a shard, counting contention: a failed `try_lock` bumps
    /// `pool.shard_contention` before falling back to a blocking acquire.
    fn lock_shard<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, PoolInner> {
        match shard.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                tilestore_obs::hot().pool_shard_contention.inc();
                lock(&shard.inner)
            }
        }
    }

    /// Running totals of the pool's reads: pages served, cache hits and
    /// misses, coalesced miss runs.
    #[must_use]
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// The wrapped page store.
    #[must_use]
    pub fn inner_store(&self) -> &S {
        &self.store
    }

    /// Number of frames currently cached, across all shards.
    #[must_use]
    pub fn cached_frames(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.inner).map.len()).sum()
    }

    /// Drops every cached frame and every ghost (cold-start measurements).
    /// Frames already lent stay valid in their readers' hands.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut inner = lock(&shard.inner);
            inner.map.clear();
            inner.slots.clear();
            inner.head = NIL;
            inner.tail = NIL;
            inner.ghosts.clear();
        }
    }
}

impl<S: PageStore> PageStore for BufferPool<S> {
    fn page_size(&self) -> usize {
        self.store.page_size()
    }

    fn allocated(&self) -> u64 {
        self.store.allocated()
    }

    fn allocate(&self, count: u64) -> Result<Vec<PageId>> {
        self.store.allocate(count)
    }

    /// A one-page batch: the single-page read runs the same hit/miss/install
    /// protocol as [`PageStore::read_frames`].
    fn read_page(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        self.read_pages(std::slice::from_ref(&page), buf).map(drop)
    }

    fn run_read_supported(&self) -> bool {
        self.store.run_read_supported()
    }

    /// Delegates to the store: run reads bypass the cache (write-through
    /// keeps the store current, and nothing is installed, so the stale-frame
    /// guard is not involved).
    fn read_page_run(&self, first: PageId, count: usize, buf: &mut [u8]) -> Result<()> {
        self.store.read_page_run(first, count, buf)
    }

    /// [`PageStore::read_frames`] plus one copy of each frame into `buf`.
    fn read_pages(&self, pages: &[PageId], buf: &mut [u8]) -> Result<IoSnapshot> {
        let ps = self.store.page_size();
        assert_eq!(buf.len(), pages.len() * ps, "buffer/pages length mismatch");
        let mut frames = Vec::with_capacity(pages.len());
        let io = self.read_frames(pages, &mut frames, pages.len())?;
        for (dst, frame) in buf.chunks_exact_mut(ps).zip(&frames) {
            dst.copy_from_slice(frame);
        }
        Ok(io)
    }

    /// The pool's one read protocol, in three passes: lend the hits, fetch
    /// the misses, install what was fetched and admitted. A statement of
    /// more than a quarter of the pool's frames admits a miss only on its
    /// second touch (see the module docs).
    fn read_frames(
        &self,
        pages: &[PageId],
        frames: &mut Vec<Frame>,
        statement_pages: usize,
    ) -> Result<IoSnapshot> {
        let mut io = IoSnapshot {
            pages_read: pages.len() as u64,
            ..IoSnapshot::default()
        };
        let mut lent: Vec<Option<Frame>> = vec![None; pages.len()];
        // Pass 1: serve hits shard by shard, under one lock acquisition per
        // shard: a hit clones the frame's `Arc` and re-ranks it in O(1).
        let mut misses: Vec<usize> = Vec::new();
        let mut versions = vec![0u64; self.shards.len()];
        for group in self
            .by_shard(pages, 0..pages.len())
            .chunk_by(|a, b| a.0 == b.0)
        {
            let si = group[0].0;
            let shard = &self.shards[si];
            let misses_before = misses.len();
            {
                let mut inner = self.lock_shard(shard);
                for &(_, i) in group {
                    match inner.touch(pages[i].0) {
                        Some(s) => lent[i] = Some(Frame::clone(&inner.slot(s).frame)),
                        None => misses.push(i),
                    }
                }
                versions[si] = inner.writes;
            }
            let missed = (misses.len() - misses_before) as u64;
            let hits = group.len() as u64 - missed;
            if hits > 0 {
                shard.hits.add(hits);
                tilestore_obs::hot().cache_hits.add(hits);
            }
            if missed > 0 {
                shard.misses.add(missed);
                tilestore_obs::hot().cache_misses.add(missed);
            }
            io.cache_hits += hits;
            io.cache_misses += missed;
        }
        if !misses.is_empty() {
            misses.sort_unstable();
            self.fetch_misses(pages, &misses, statement_pages, &mut lent, &mut io)?;
            // Pass 3: install the fetched frames, one lock per shard, each
            // guarded by that shard's write version sampled in pass 1. If a
            // write landed on the shard while the fetch was in flight, the
            // fetched bytes may predate a write that has already returned to
            // its caller: installing them would leave the cache permanently
            // stale, so the caller gets them (the read merely overlapped the
            // write) but the frame table is left alone. A frame a concurrent
            // miss installed first is as fresh as ours and is just touched.
            // A scan installs only the misses that were ghosts and makes
            // ghosts of the rest. An installed frame is a copy that owns its
            // page; the caller keeps the store's view.
            let scan = statement_pages > self.scan_pages;
            let (mut skipped, mut second_touch) = (0, 0);
            for group in self
                .by_shard(pages, misses.into_iter())
                .chunk_by(|a, b| a.0 == b.0)
            {
                let si = group[0].0;
                let shard = &self.shards[si];
                let mut inner = self.lock_shard(shard);
                if inner.writes != versions[si] {
                    continue;
                }
                for &(_, i) in group {
                    let page = pages[i].0;
                    if inner.touch(page).is_some() {
                        continue;
                    }
                    if scan && !inner.ghosts.take(page) {
                        inner.ghosts.add(page, shard.capacity);
                        skipped += 1;
                        continue;
                    }
                    second_touch += u64::from(scan);
                    let frame = lent[i].as_ref().expect("pass 2 fetched every miss");
                    inner.install(page, frame.owned(), shard.capacity);
                }
            }
            if skipped > 0 {
                tilestore_obs::hot().pool_scan_skips.add(skipped);
            }
            if second_touch > 0 {
                tilestore_obs::hot()
                    .pool_second_touch_installs
                    .add(second_touch);
            }
        }
        self.stats.add(&io);
        frames.extend(
            lent.into_iter()
                .map(|f| f.expect("every page hit or fetched")),
        );
        Ok(io)
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> Result<()> {
        // Write-through: the store is always current.
        self.store.write_page(page, buf)?;
        let mut inner = self.lock_shard(&self.shards[self.shard_index(page.0)]);
        inner.writes += 1;
        if let Some(s) = inner.touch(page.0) {
            // A fresh frame, not an overwrite: readers holding the old one
            // keep the bytes they read before this write.
            inner.slot(s).frame = Frame::from(buf);
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        // Write-through means no dirty frames: delegate to the store.
        self.store.sync()
    }
}

impl<S: PageStore> BufferPool<S> {
    /// Pass 2 of [`PageStore::read_frames`]: fetches the missed pages (caller
    /// indexes `misses`, ascending) from the store into `lent`, outside
    /// every shard lock. Misses that are consecutive both in the caller's
    /// order and in page id are physically adjacent frames, fetched with one
    /// store read — one positioned read on a file store. Coalescing only
    /// changes how the miss bytes are fetched; the pass-1 version sample and
    /// the pass-3 install guard are untouched, so the stale-frame invariant
    /// holds as before. The store's run counts join `io`.
    fn fetch_misses(
        &self,
        pages: &[PageId],
        misses: &[usize],
        statement_pages: usize,
        lent: &mut [Option<Frame>],
        io: &mut IoSnapshot,
    ) -> Result<()> {
        let coalesce = self.store.run_read_supported();
        let mut fetched = Vec::new();
        let mut k = 0;
        while k < misses.len() {
            let start = misses[k];
            let mut len = 1;
            while coalesce
                && k + len < misses.len()
                && misses[k + len] == start + len
                && pages[start + len].0 == pages[start].0 + len as u64
            {
                len += 1;
            }
            fetched.clear();
            let run = self.store.read_frames(
                &pages[start..start + len],
                &mut fetched,
                statement_pages,
            )?;
            *io += &IoSnapshot {
                pages_read: 0,
                ..run
            };
            for (slot, frame) in lent[start..start + len].iter_mut().zip(fetched.drain(..)) {
                *slot = Some(frame);
            }
            k += len;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::MemPageStore;

    /// Single-shard pool: the tests below that pin an exact global LRU
    /// order need one lock domain; sharded behavior has its own tests.
    fn pool(capacity: usize) -> BufferPool<MemPageStore> {
        BufferPool::with_shards(MemPageStore::new(1024).unwrap(), capacity, 1).unwrap()
    }

    /// Reads one page, reporting whether this call was a cache hit.
    fn hit(p: &BufferPool<MemPageStore>, page: PageId) -> bool {
        let mut buf = vec![0u8; p.page_size()];
        p.read_pages(&[page], &mut buf).unwrap().cache_hits == 1
    }

    /// Checks the `map`/`slots`/recency-list cross-invariant on every
    /// shard: the list from `head` visits every slot once, its back links
    /// mirror its forward links, it ends at `tail`, and `map` points each
    /// page at its slot. Every cached frame owns exactly its one page, so
    /// cached memory is at most `capacity × page_size`, and the ghost list
    /// holds at most one shard capacity of ids, each at its ring index.
    fn assert_coherent<S: PageStore>(p: &BufferPool<S>) {
        for shard in p.shards.iter() {
            let inner = lock(&shard.inner);
            assert_eq!(inner.map.len(), inner.slots.len());
            assert!(inner.slots.len() <= shard.capacity);
            let ghosts = &inner.ghosts;
            assert!(ghosts.ring.len() <= shard.capacity);
            assert!(ghosts.map.len() <= ghosts.ring.len());
            for (page, &i) in &ghosts.map {
                assert_eq!(
                    ghosts.ring[i as usize], *page,
                    "ghost {page} off its ring slot"
                );
            }
            let (mut s, mut prev, mut seen) = (inner.head, NIL, 0);
            while s != NIL {
                let slot = &inner.slots[s as usize];
                assert_eq!(slot.prev, prev);
                assert_eq!(inner.map.get(&slot.page), Some(&s));
                assert!(
                    slot.frame.owns_buffer(),
                    "page {} pins a run buffer",
                    slot.page
                );
                assert_eq!(slot.frame.len(), p.page_size());
                (prev, s) = (s, slot.next);
                seen += 1;
                assert!(seen <= inner.slots.len(), "recency list has a cycle");
            }
            assert_eq!(inner.tail, prev);
            assert_eq!(seen, inner.slots.len());
        }
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(BufferPool::new(MemPageStore::new(1024).unwrap(), 0).is_err());
    }

    #[test]
    fn shard_count_is_clamped_and_capacity_splits_exactly() {
        let mk = |cap, shards| {
            BufferPool::with_shards(MemPageStore::new(1024).unwrap(), cap, shards).unwrap()
        };
        // Rounded down to a power of two, clamped so each shard has ≥ 1 frame.
        assert_eq!(mk(64, 7).shards.len(), 4);
        assert_eq!(mk(64, 16).shards.len(), 16);
        assert_eq!(mk(3, 16).shards.len(), 2);
        assert_eq!(mk(1, 16).shards.len(), 1);
        assert_eq!(mk(5, 0).shards.len(), 1);
        // Capacities sum to the requested total, remainder to low shards.
        let p = mk(11, 4);
        let caps: Vec<usize> = p.shards.iter().map(|s| s.capacity).collect();
        assert_eq!(caps, vec![3, 3, 3, 2]);
        assert_eq!(caps.iter().sum::<usize>(), 11);
    }

    #[test]
    fn sharded_pool_never_exceeds_total_capacity() {
        let p = BufferPool::with_shards(MemPageStore::new(1024).unwrap(), 8, 4).unwrap();
        let pages = p.allocate(64).unwrap();
        let mut buf = vec![0u8; 1024];
        for _ in 0..3 {
            for &pg in &pages {
                p.read_page(pg, &mut buf).unwrap();
                assert!(p.cached_frames() <= 8);
            }
        }
        assert_coherent(&p);
    }

    #[test]
    fn repeated_reads_hit_cache() {
        let p = pool(4);
        let pages = p.allocate(1).unwrap();
        let payload = vec![5u8; 1024];
        p.write_page(pages[0], &payload).unwrap();
        let mut buf = vec![0u8; 1024];
        p.read_page(pages[0], &mut buf).unwrap();
        p.read_page(pages[0], &mut buf).unwrap();
        p.read_page(pages[0], &mut buf).unwrap();
        assert_eq!(buf, payload);
        let s = p.stats().snapshot();
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 2);
        assert_coherent(&p);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let p = pool(2);
        let pages = p.allocate(3).unwrap();
        let mut buf = vec![0u8; 1024];
        p.read_page(pages[0], &mut buf).unwrap(); // cache: {0}
        p.read_page(pages[1], &mut buf).unwrap(); // cache: {0,1}
        p.read_page(pages[0], &mut buf).unwrap(); // refresh 0
        p.read_page(pages[2], &mut buf).unwrap(); // evicts 1
        assert_eq!(p.cached_frames(), 2);
        assert!(hit(&p, pages[0]));
        assert!(!hit(&p, pages[1]));
        assert_coherent(&p);
    }

    #[test]
    fn write_refresh_changes_eviction_order() {
        let p = pool(2);
        let pages = p.allocate(3).unwrap();
        let mut buf = vec![0u8; 1024];
        p.read_page(pages[0], &mut buf).unwrap(); // cache: {0}
        p.read_page(pages[1], &mut buf).unwrap(); // cache: {0,1}
        p.write_page(pages[0], &vec![1u8; 1024]).unwrap(); // refresh 0
        p.read_page(pages[2], &mut buf).unwrap(); // evicts 1, not 0
        assert!(hit(&p, pages[0]), "page 0 was refreshed");
        assert_coherent(&p);
    }

    #[test]
    fn eviction_stays_linear_under_scan() {
        // A miss-heavy scan over a full pool must evict exactly one frame
        // per miss (O(log n) each), never growing past capacity.
        let p = pool(8);
        let pages = p.allocate(64).unwrap();
        let mut buf = vec![0u8; 1024];
        for _ in 0..4 {
            for &pg in &pages {
                p.read_page(pg, &mut buf).unwrap();
                assert!(p.cached_frames() <= 8);
            }
        }
        let s = p.stats().snapshot();
        assert_eq!(s.cache_misses, 256, "pure scan: every access misses");
        assert_coherent(&p);
    }

    #[test]
    fn write_through_updates_cached_frame() {
        let p = pool(2);
        let pages = p.allocate(1).unwrap();
        let mut buf = vec![0u8; 1024];
        p.write_page(pages[0], &vec![1u8; 1024]).unwrap();
        p.read_page(pages[0], &mut buf).unwrap(); // install frame
        p.write_page(pages[0], &vec![2u8; 1024]).unwrap();
        p.read_page(pages[0], &mut buf).unwrap(); // served from cache
        assert_eq!(buf, vec![2u8; 1024]);
        // And the backing store is current too.
        let mut direct = vec![0u8; 1024];
        p.inner_store().read_page(pages[0], &mut direct).unwrap();
        assert_eq!(direct, vec![2u8; 1024]);
    }

    #[test]
    fn clear_forces_cold_reads() {
        let p = pool(4);
        let pages = p.allocate(1).unwrap();
        let mut buf = vec![0u8; 1024];
        p.read_page(pages[0], &mut buf).unwrap();
        p.clear();
        assert_eq!(p.cached_frames(), 0);
        assert!(!hit(&p, pages[0]));
        assert_coherent(&p);
    }

    #[test]
    fn batch_read_pages_matches_per_page_reads() {
        let p = BufferPool::with_shards(MemPageStore::new(1024).unwrap(), 8, 4).unwrap();
        let pages = p.allocate(12).unwrap();
        for (i, &pg) in pages.iter().enumerate() {
            p.write_page(pg, &vec![i as u8 + 1; 1024]).unwrap();
        }
        // Warm a subset so the batch mixes hits and misses.
        let mut one = vec![0u8; 1024];
        for &pg in &pages[..4] {
            p.read_page(pg, &mut one).unwrap();
        }
        let before = p.stats().snapshot();
        let mut buf = vec![0u8; 12 * 1024];
        let s = p.read_pages(&pages, &mut buf).unwrap();
        for (i, chunk) in buf.chunks(1024).enumerate() {
            assert_eq!(chunk, &vec![i as u8 + 1; 1024][..], "page {i}");
        }
        assert_eq!((s.pages_read, s.cache_hits, s.cache_misses), (12, 4, 8));
        assert_eq!(
            p.stats().snapshot().since(&before),
            s,
            "totals add the call"
        );
        // Whatever survived eviction (capacity is 8 < 12 pages) now hits;
        // every page is exactly one hit or one miss either way.
        let resident = p.cached_frames() as u64;
        assert!(resident > 0 && resident <= 8);
        let s = p.read_pages(&pages, &mut buf).unwrap();
        assert_eq!(s.cache_hits, resident);
        assert_eq!(s.cache_hits + s.cache_misses, 12);
        assert!(p.cached_frames() <= 8);
        assert_coherent(&p);
    }

    #[test]
    fn a_lent_frame_keeps_its_bytes_through_a_scan_that_evicts_it() {
        let p = pool(2);
        let pages = p.allocate(6).unwrap();
        let mut buf = vec![0u8; 1024];
        p.write_page(pages[0], &vec![7u8; 1024]).unwrap();
        p.read_page(pages[0], &mut buf).unwrap(); // install frame 0
        let mut lent = Vec::new();
        let io = p.read_frames(&pages[..1], &mut lent, 1).unwrap();
        assert_eq!((io.cache_hits, io.cache_misses), (1, 0));
        // A scan over 5 other pages evicts frame 0 (LRU), and a write
        // replaces the page on the store: the lent frame is the reader's.
        for &pg in &pages[1..] {
            p.read_page(pg, &mut buf).unwrap();
        }
        assert!(!hit(&p, pages[0]), "the scan evicted frame 0");
        p.write_page(pages[0], &vec![8u8; 1024]).unwrap();
        assert_eq!(&lent[0][..], &vec![7u8; 1024][..]);
        p.read_page(pages[0], &mut buf).unwrap();
        assert_eq!(buf, vec![8u8; 1024]);
        assert_coherent(&p);
    }

    #[test]
    fn a_write_swaps_the_cached_frame_and_spares_the_lent_one() {
        let p = pool(4);
        let pages = p.allocate(1).unwrap();
        p.write_page(pages[0], &vec![1u8; 1024]).unwrap();
        let mut before = Vec::new();
        p.read_frames(&pages, &mut before, 1).unwrap(); // miss: installs
        p.read_frames(&pages, &mut before, 1).unwrap(); // hit: lends
        assert!(
            Frame::ptr_eq(&before[0], &before[1]),
            "a hit lends the cached frame"
        );
        p.write_page(pages[0], &vec![2u8; 1024]).unwrap();
        let mut after = Vec::new();
        let io = p.read_frames(&pages, &mut after, 1).unwrap();
        assert_eq!(io.cache_hits, 1);
        assert_eq!(&after[0][..], &vec![2u8; 1024][..]);
        assert!(before.iter().all(|f| f[..] == vec![1u8; 1024][..]));
        assert_coherent(&p);
    }

    #[test]
    fn concurrent_readers_and_writer_stay_consistent() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Every page is filled with a single repeated byte; a torn or stale
        // frame would surface as a mixed-byte read. Runs on the default
        // sharded layout so cross-shard locking is exercised.
        let p = BufferPool::new(MemPageStore::new(1024).unwrap(), 8).unwrap();
        let pages = p.allocate(32).unwrap();
        for (i, &pg) in pages.iter().enumerate() {
            p.write_page(pg, &vec![i as u8; 1024]).unwrap();
        }
        let stop = AtomicBool::new(false);
        let reads_done = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            // One writer cycling the value of every page, keeping the
            // single-byte-fill invariant.
            s.spawn(|| {
                for round in 1u32..=20 {
                    for (i, &pg) in pages.iter().enumerate() {
                        let v = (i as u32 + round) as u8;
                        p.write_page(pg, &vec![v; 1024]).unwrap();
                    }
                }
                stop.store(true, Ordering::Release);
            });
            // Four readers hammering random-ish pages.
            for t in 0..4u64 {
                let p = &p;
                let stop = &stop;
                let reads_done = &reads_done;
                let pages = &pages;
                s.spawn(move || {
                    let mut buf = vec![0u8; 1024];
                    let mut x = t + 1;
                    let mut local = 0u64;
                    while !stop.load(Ordering::Acquire) || local < 200 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let pg = pages[(x >> 33) as usize % pages.len()];
                        p.read_page(pg, &mut buf).unwrap();
                        let first = buf[0];
                        assert!(
                            buf.iter().all(|&b| b == first),
                            "torn/stale frame for page {}",
                            pg.0
                        );
                        local += 1;
                        if local > 100_000 {
                            break;
                        }
                    }
                    reads_done.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        // Counter consistency: every read was either a hit or a miss.
        let s = p.stats().snapshot();
        assert_eq!(
            s.cache_hits + s.cache_misses,
            reads_done.load(Ordering::Relaxed)
        );
        assert!(p.cached_frames() <= 8);
        assert_coherent(&p);
    }

    /// Writes page `i` of `pages` as `i + 1` repeated, reading back as a
    /// one-byte fill that tells a frame's page.
    fn fill<S: PageStore>(p: &BufferPool<S>, pages: &[PageId]) {
        for (i, &pg) in pages.iter().enumerate() {
            p.write_page(pg, &vec![i as u8 + 1; p.page_size()]).unwrap();
        }
    }

    /// `(hits, misses)` of one statement reading `pages` in full.
    fn statement<S: PageStore>(p: &BufferPool<S>, pages: &[PageId]) -> (u64, u64) {
        let mut frames = Vec::new();
        let io = p.read_frames(pages, &mut frames, pages.len()).unwrap();
        for (frame, pg) in frames.iter().zip(pages) {
            let want = frame[0];
            assert!(frame.iter().all(|&b| b == want), "page {} torn", pg.0);
        }
        (io.cache_hits, io.cache_misses)
    }

    fn ghost_count<S: PageStore>(p: &BufferPool<S>) -> usize {
        p.shards
            .iter()
            .map(|s| lock(&s.inner).ghosts.map.len())
            .sum()
    }

    #[test]
    fn a_scan_installs_nothing_on_first_touch() {
        let p = pool(8);
        let pages = p.allocate(8).unwrap();
        fill(&p, &pages);
        let skips = &tilestore_obs::hot().pool_scan_skips;
        let before = skips.get();
        // 4 pages is more than a quarter of 8 frames: a scan.
        assert_eq!(statement(&p, &pages[..4]), (0, 4));
        assert_eq!(p.cached_frames(), 0);
        assert_eq!(ghost_count(&p), 4);
        assert!(skips.get() >= before + 4);
        // A quarter of the pool is not a scan: it installs at once.
        assert_eq!(statement(&p, &pages[4..6]), (0, 2));
        assert_eq!(p.cached_frames(), 2);
        assert_eq!(statement(&p, &pages[4..6]), (2, 0));
        // So does a single page, whatever the pool's size.
        let tiny = pool(2);
        let page = tiny.allocate(1).unwrap();
        assert_eq!(statement(&tiny, &page), (0, 1));
        assert_eq!(statement(&tiny, &page), (1, 0));
        assert_coherent(&p);
        assert_coherent(&tiny);
    }

    #[test]
    fn a_repeated_scan_installs_on_second_touch_and_hits_on_third() {
        let p = BufferPool::with_shards(MemPageStore::new(1024).unwrap(), 16, 2).unwrap();
        let pages = p.allocate(12).unwrap();
        fill(&p, &pages);
        let installs = &tilestore_obs::hot().pool_second_touch_installs;
        let before = installs.get();
        assert_eq!(statement(&p, &pages), (0, 12));
        assert_eq!(p.cached_frames(), 0);
        assert_eq!(statement(&p, &pages), (0, 12));
        assert_eq!(p.cached_frames(), 12);
        assert_eq!(ghost_count(&p), 0, "every ghost was admitted");
        assert!(installs.get() >= before + 12);
        assert_eq!(statement(&p, &pages), (12, 0));
        assert_coherent(&p);
    }

    #[test]
    fn a_hot_set_survives_a_scan_larger_than_the_pool() {
        let p = BufferPool::with_shards(MemPageStore::new(1024).unwrap(), 8, 2).unwrap();
        let pages = p.allocate(72).unwrap();
        fill(&p, &pages);
        let (hot, cold) = pages.split_at(2);
        assert_eq!(statement(&p, hot), (0, 2));
        // A 70-page scan, whole and then in the plan's batches: one
        // statement's page total rides on every batch.
        assert_eq!(statement(&p, cold), (0, 70));
        for batch in cold.chunks(5) {
            let mut frames = Vec::new();
            let io = p.read_frames(batch, &mut frames, cold.len()).unwrap();
            assert_eq!(io.cache_misses, batch.len() as u64);
        }
        assert_eq!(statement(&p, hot), (2, 0), "the scan evicted the hot set");
        assert_eq!(p.cached_frames(), 2);
        assert_coherent(&p);
    }

    #[test]
    fn the_ghost_list_never_exceeds_its_capacity() {
        let p = BufferPool::with_shards(MemPageStore::new(1024).unwrap(), 16, 4).unwrap();
        let pages = p.allocate(200).unwrap();
        for round in 0..6 {
            // Overlapping scans of varying length, so ghosts are both
            // admitted and overwritten.
            let start = round * 17 % 120;
            statement(&p, &pages[start..start + 40 + round * 5]);
            assert!(ghost_count(&p) <= 16);
            assert_coherent(&p);
        }
        assert_eq!(ghost_count(&p), 16, "a long scan fills every shard's list");
    }

    #[test]
    fn clear_drops_the_ghosts() {
        let p = pool(8);
        let pages = p.allocate(6).unwrap();
        assert_eq!(statement(&p, &pages), (0, 6));
        assert_eq!(ghost_count(&p), 6);
        p.clear();
        assert_eq!(ghost_count(&p), 0);
        // No ghost is left, so the repeat is a first touch again.
        assert_eq!(statement(&p, &pages), (0, 6));
        assert_eq!(p.cached_frames(), 0);
        assert_coherent(&p);
    }

    #[test]
    fn run_reads_through_a_file_store_cache_one_page_per_frame() {
        let dir = tilestore_testkit::tempdir().unwrap();
        let store = crate::page::FilePageStore::create(dir.path().join("pages.db"), 512).unwrap();
        let p = BufferPool::with_shards(store, 64, 4).unwrap();
        let pages = p.allocate(48).unwrap();
        fill(&p, &pages);
        // Small statements install every miss; each frame arrived as a view
        // of a multi-page run buffer and is cached as its own copy.
        for batch in pages[..32].chunks(8) {
            let mut frames = Vec::new();
            let io = p.read_frames(batch, &mut frames, batch.len()).unwrap();
            assert_eq!(io.runs_coalesced, 1);
            assert!(
                frames.iter().all(|f| !f.owns_buffer()),
                "a miss lends views"
            );
        }
        assert_eq!(p.cached_frames(), 32);
        assert_coherent(&p);
        // A scan's second touch installs copies too, and a hit lends them.
        assert_eq!(statement(&p, &pages[16..]), (16, 16));
        assert_eq!(statement(&p, &pages[16..]), (16, 16));
        assert_eq!(p.cached_frames(), 48);
        let mut frames = Vec::new();
        p.read_frames(&pages, &mut frames, pages.len()).unwrap();
        for (i, frame) in frames.iter().enumerate() {
            assert!(frame.owns_buffer());
            assert_eq!(&frame[..], &vec![i as u8 + 1; 512][..]);
        }
        assert_coherent(&p);
    }
}
