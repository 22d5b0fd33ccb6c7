//! Sharded LRU buffer pool over a page store.
//!
//! The paper measures cold-cache retrieval times (`t_o`); the pool exists to
//! show (and benchmark) how caching changes the picture, and to serve as the
//! realistic substrate a DBMS would run on. It wraps any [`PageStore`] and
//! is itself a [`PageStore`], so the BLOB layer can run with or without it.
//!
//! # Sharding
//!
//! The frame table is split into `N` shards (a power of two), each with its
//! own mutex, LRU state, pin table and `capacity / N` frames. A page maps to
//! a shard by a Fibonacci hash of its id, so concurrent readers touching
//! different pages contend on different locks instead of funnelling through
//! one global mutex. Within a shard, recency is tracked with a tick-indexed
//! ordered map (`tick → page`), so eviction is an O(log n) pop of the oldest
//! tick instead of an O(n) scan.
//!
//! # Freshness invariant
//!
//! The pool is write-through, and it guarantees: **after `write_page(p, new)`
//! returns, no read of `p` observes bytes older than `new`**. The miss path
//! fetches from the store outside the lock; each shard keeps a write-version
//! counter, sampled when the miss starts, and the fetched bytes are installed
//! only if no write landed on the shard in between — otherwise the (possibly
//! stale) fetch is discarded and the frame table is left untouched. This is
//! conservative (a write to a *different* page in the same shard also voids
//! the install), which costs at most a re-fetch, never staleness.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

use tilestore_obs::Counter;

use crate::error::Result;
use crate::page::{lock, PageId, PageStore};
use crate::stats::{IoSnapshot, IoStats};

/// Default number of shards, clamped down so every shard holds ≥ 1 frame.
pub const DEFAULT_SHARDS: usize = 8;

/// A write-through, sharded LRU page cache.
pub struct BufferPool<S> {
    store: S,
    stats: IoStats,
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; the shard count is a power of two.
    mask: u64,
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

#[derive(Debug, Default)]
struct PoolInner {
    /// page -> (frame payload, LRU tick of last use)
    frames: HashMap<u64, (Box<[u8]>, u64)>,
    /// LRU tick of last use -> page; the first entry is the eviction victim.
    /// Invariant: `order` and `frames` hold exactly the same pages, with
    /// matching ticks (ticks are unique, drawn from a monotonic counter).
    order: BTreeMap<u64, u64>,
    /// page -> pin count. Pinned pages are exempt from eviction; the BLOB
    /// layer pins a tile's pages for the duration of the tile read so a
    /// concurrent scan cannot evict a frame out from under a reader.
    pins: HashMap<u64, u32>,
    tick: u64,
    /// Bumped by every `write_page` that maps to this shard. A miss samples
    /// it before fetching; if it moved by install time the fetched bytes may
    /// predate a completed write and are discarded.
    writes: u64,
}

impl PoolInner {
    /// Draws the next recency tick.
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Moves `page` (already cached, at `old_tick`) to `new_tick`.
    fn touch(&mut self, page: u64, old_tick: u64, new_tick: u64) {
        self.order.remove(&old_tick);
        self.order.insert(new_tick, page);
    }

    /// Installs `page` at `tick`, evicting the least recently used
    /// *unpinned* frames while the shard is at or above `capacity`. When
    /// every cached frame is pinned the shard temporarily exceeds capacity
    /// rather than dropping a frame a reader is still using.
    fn install(&mut self, page: u64, payload: Box<[u8]>, tick: u64, capacity: usize) {
        while self.frames.len() >= capacity {
            let victim = self
                .order
                .iter()
                .map(|(&t, &p)| (t, p))
                .find(|(_, p)| !self.pins.contains_key(p));
            match victim {
                Some((victim_tick, victim_page)) => {
                    self.order.remove(&victim_tick);
                    self.frames.remove(&victim_page);
                }
                None => break,
            }
        }
        self.frames.insert(page, (payload, tick));
        self.order.insert(tick, page);
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
                inner: Mutex::new(PoolInner::default()),
                hits: reg.counter(&format!("pool.shard{i}.cache_hits")),
                misses: reg.counter(&format!("pool.shard{i}.cache_misses")),
            })
            .collect();
        Ok(BufferPool {
            store,
            stats: IoStats::new(),
            shards: shards.into_boxed_slice(),
            mask: (n - 1) as u64,
        })
    }

    /// The shard a page id maps to. Fibonacci hashing spreads the sequential
    /// page ids a tile occupies across shards, so one tile read touches
    /// several lock domains instead of hammering one.
    fn shard_index(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33 & self.mask) as usize
    }

    fn shard(&self, page: u64) -> &Shard {
        &self.shards[self.shard_index(page)]
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
        self.shards
            .iter()
            .map(|s| lock(&s.inner).frames.len())
            .sum()
    }

    /// Drops every cached frame (cold-start measurements). Pins survive: a
    /// pinned page simply re-enters the pool on its next read.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut inner = lock(&shard.inner);
            inner.frames.clear();
            inner.order.clear();
        }
    }

    /// Number of pages currently pinned (with any positive pin count).
    #[must_use]
    pub fn pinned_pages(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.inner).pins.len()).sum()
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
    /// protocol as [`PageStore::read_pages`].
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

    fn read_pages(&self, pages: &[PageId], buf: &mut [u8]) -> Result<IoSnapshot> {
        let ps = self.store.page_size();
        assert_eq!(buf.len(), pages.len() * ps, "buffer/pages length mismatch");
        let mut io = IoSnapshot {
            pages_read: pages.len() as u64,
            ..IoSnapshot::default()
        };
        // Pass 1: group by shard and serve hits under one lock acquisition
        // per shard — the convoy-killer for concurrent tile fetches,
        // which used to take three pool locks (pin, read, unpin) per page.
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, &page) in pages.iter().enumerate() {
            by_shard[self.shard_index(page.0)].push(i);
        }
        let mut miss_idx: Vec<usize> = Vec::new();
        let mut versions = vec![0u64; self.shards.len()];
        for (si, idxs) in by_shard.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let shard = &self.shards[si];
            let mut hits = 0u64;
            let misses_before = miss_idx.len();
            {
                let mut inner = self.lock_shard(shard);
                for &i in idxs {
                    let tick = inner.next_tick();
                    if let Some((frame, last)) = inner.frames.get_mut(&pages[i].0) {
                        buf[i * ps..(i + 1) * ps].copy_from_slice(frame);
                        let old = *last;
                        *last = tick;
                        inner.touch(pages[i].0, old, tick);
                        hits += 1;
                    } else {
                        miss_idx.push(i);
                    }
                }
                versions[si] = inner.writes;
            }
            let misses = (miss_idx.len() - misses_before) as u64;
            if hits > 0 {
                shard.hits.add(hits);
                tilestore_obs::hot().cache_hits.add(hits);
            }
            if misses > 0 {
                shard.misses.add(misses);
                tilestore_obs::hot().cache_misses.add(misses);
            }
            io.cache_hits += hits;
            io.cache_misses += misses;
        }
        if miss_idx.is_empty() {
            self.stats.add(&io);
            return Ok(io);
        }
        // Pass 2: fetch misses from the store straight into the caller's
        // buffer. The bytes never transit the cache, so no pinning is needed
        // to protect them from eviction. Misses that are consecutive both in
        // the caller's order and in page id have physically adjacent frames
        // and a contiguous destination slice — fetch each such run with one
        // positioned read. Coalescing only changes how the miss bytes are
        // fetched; the pass-1 version sample and the pass-3 install guard
        // are untouched, so the stale-frame invariant holds as before.
        miss_idx.sort_unstable();
        let coalesce = self.store.run_read_supported();
        let mut k = 0;
        while k < miss_idx.len() {
            let start = miss_idx[k];
            let mut len = 1;
            while coalesce
                && k + len < miss_idx.len()
                && miss_idx[k + len] == start + len
                && pages[start + len].0 == pages[start].0 + len as u64
            {
                len += 1;
            }
            if len > 1 {
                self.store.read_page_run(
                    pages[start],
                    len,
                    &mut buf[start * ps..(start + len) * ps],
                )?;
                io.count_run(len, ps);
            } else {
                self.store
                    .read_page(pages[start], &mut buf[start * ps..(start + 1) * ps])?;
            }
            k += len;
        }
        io.publish_runs();
        // Pass 3: install the fetched frames, one lock per shard, each
        // guarded by that shard's write version sampled in pass 1. If a
        // write landed on the shard while the fetch was in flight, the
        // fetched bytes may predate a write that has already returned to
        // its caller: installing them would leave the cache permanently
        // stale, so the caller gets them (the read merely overlapped the
        // write) but the frame table is left alone. A frame a concurrent
        // miss installed first is as fresh as ours and is just touched.
        let mut installs: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for &i in &miss_idx {
            installs[self.shard_index(pages[i].0)].push(i);
        }
        for (si, idxs) in installs.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let shard = &self.shards[si];
            let mut inner = self.lock_shard(shard);
            if inner.writes != versions[si] {
                continue;
            }
            for &i in idxs {
                let tick = inner.next_tick();
                if let Some((_, last)) = inner.frames.get_mut(&pages[i].0) {
                    let old = *last;
                    *last = tick;
                    inner.touch(pages[i].0, old, tick);
                    continue;
                }
                let payload = buf[i * ps..(i + 1) * ps].to_vec().into_boxed_slice();
                inner.install(pages[i].0, payload, tick, shard.capacity);
            }
        }
        self.stats.add(&io);
        Ok(io)
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> Result<()> {
        // Write-through: the store is always current.
        self.store.write_page(page, buf)?;
        let shard = self.shard(page.0);
        let mut inner = self.lock_shard(shard);
        inner.writes += 1;
        let tick = inner.next_tick();
        if let Some((frame, last)) = inner.frames.get_mut(&page.0) {
            frame.copy_from_slice(buf);
            let old = *last;
            *last = tick;
            inner.touch(page.0, old, tick);
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        // Write-through means no dirty frames: delegate to the store.
        self.store.sync()
    }

    fn pin_page(&self, page: PageId) {
        let mut inner = self.lock_shard(self.shard(page.0));
        *inner.pins.entry(page.0).or_insert(0) += 1;
    }

    fn unpin_page(&self, page: PageId) {
        let mut inner = self.lock_shard(self.shard(page.0));
        if let Some(count) = inner.pins.get_mut(&page.0) {
            *count -= 1;
            if *count == 0 {
                inner.pins.remove(&page.0);
            }
        } else {
            drop(inner);
            // A pin-leak or double-unpin upstream: loud in debug builds,
            // counted in release so it surfaces in the ops plane.
            debug_assert!(false, "unpin_page({}) without a matching pin", page.0);
            tilestore_obs::hot().pin_underflow.inc();
        }
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

    /// Checks the `frames`/`order` cross-invariant on every shard.
    fn assert_coherent<S: PageStore>(p: &BufferPool<S>) {
        for shard in p.shards.iter() {
            let inner = lock(&shard.inner);
            assert_eq!(inner.frames.len(), inner.order.len());
            for (&tick, &page) in &inner.order {
                assert_eq!(inner.frames.get(&page).map(|(_, t)| *t), Some(tick));
            }
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
    fn pinned_frames_survive_a_miss_heavy_scan() {
        let p = pool(2);
        let pages = p.allocate(6).unwrap();
        let mut buf = vec![0u8; 1024];
        p.write_page(pages[0], &vec![7u8; 1024]).unwrap();
        p.read_page(pages[0], &mut buf).unwrap(); // install frame 0
        p.pin_page(pages[0]);
        assert_eq!(p.pinned_pages(), 1);
        // A scan over 5 other pages would normally evict frame 0 (LRU);
        // the pin must keep it resident.
        for &pg in &pages[1..] {
            p.read_page(pg, &mut buf).unwrap();
        }
        assert!(hit(&p, pages[0]), "pinned frame evicted");
        p.read_page(pages[0], &mut buf).unwrap();
        assert_eq!(buf, vec![7u8; 1024]);
        // Pins nest: one unpin of a doubly-pinned page keeps it protected.
        p.pin_page(pages[0]);
        p.unpin_page(pages[0]);
        for &pg in &pages[1..] {
            p.read_page(pg, &mut buf).unwrap();
        }
        assert!(hit(&p, pages[0]));
        // After the last unpin it becomes evictable again.
        p.unpin_page(pages[0]);
        assert_eq!(p.pinned_pages(), 0);
        for &pg in &pages[1..] {
            p.read_page(pg, &mut buf).unwrap();
        }
        assert!(!hit(&p, pages[0]));
        assert_coherent(&p);
    }

    #[test]
    fn fully_pinned_pool_overflows_instead_of_evicting() {
        let p = pool(2);
        let pages = p.allocate(3).unwrap();
        let mut buf = vec![0u8; 1024];
        p.read_page(pages[0], &mut buf).unwrap();
        p.read_page(pages[1], &mut buf).unwrap();
        p.pin_page(pages[0]);
        p.pin_page(pages[1]);
        // Capacity is 2 and both frames are pinned: the third page must
        // still be cacheable (temporarily exceeding capacity) rather than
        // dropping a pinned frame.
        p.read_page(pages[2], &mut buf).unwrap();
        assert_eq!(p.cached_frames(), 3);
        assert!(hit(&p, pages[0]) && hit(&p, pages[1]));
        p.unpin_page(pages[0]);
        p.unpin_page(pages[1]);
        // The next install drains the overflow back under capacity.
        let extra = p.allocate(1).unwrap();
        p.read_page(extra[0], &mut buf).unwrap();
        assert!(p.cached_frames() <= 2);
        assert_coherent(&p);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "without a matching pin"))]
    fn unpin_without_pin_is_loud() {
        let p = pool(2);
        let pages = p.allocate(1).unwrap();
        let before = tilestore_obs::hot().pin_underflow.get();
        p.unpin_page(pages[0]);
        // Release builds reach here and must have counted the underflow.
        assert!(tilestore_obs::hot().pin_underflow.get() > before);
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
}
